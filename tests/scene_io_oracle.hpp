// Reference .mws reader and writer for the scene_io tests — the iostream
// codec md/scene_io.cpp used before it moved to <charconv>.  Test-only: it
// is what "byte-identical text" and "bit-identical parse" are measured
// against, and the differential mutation test runs every input through both
// readers.
//
// Writer: ostream << at setprecision(17), i.e. printf("%.17g") per real.
// Reader: one std::istringstream per line, fields read with operator>>.  It
// is looser than md::load_scene in four ways, all of which the production
// reader rejects: text left after a record's last field is ignored; an int
// field reads only its leading digits ("1.5" reads 1 and leaves ".5" for the
// next field); a real field reads only its leading number ("12.5.5" reads
// 12.5 and leaves ".5" for the next field); and an underflowing real
// ("1e-400") reads as 0.
#pragma once

#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "md/system.hpp"

namespace mwx::md::oracle {

inline void save_scene_body(std::ostream& os, const MolecularSystem& sys) {
  os << std::setprecision(17);
  const Box& box = sys.box();
  os << "box " << box.lo.x << ' ' << box.lo.y << ' ' << box.lo.z << ' ' << box.hi.x << ' '
     << box.hi.y << ' ' << box.hi.z << '\n';
  for (int t = 0; t < sys.types().n(); ++t) {
    const AtomType& ty = sys.types().at(t);
    os << "type " << ty.name << ' ' << ty.mass << ' ' << ty.lj_epsilon << ' ' << ty.lj_sigma
       << '\n';
  }
  for (int ext = 0; ext < sys.n_atoms(); ++ext) {
    const int i = sys.index_of_external(ext);
    const Vec3& p = sys.positions()[static_cast<std::size_t>(i)];
    const Vec3& v = sys.velocities()[static_cast<std::size_t>(i)];
    os << "atom " << sys.type_of(i) << ' ' << p.x << ' ' << p.y << ' ' << p.z << ' ' << v.x
       << ' ' << v.y << ' ' << v.z << ' ' << sys.charge(i) << ' ' << (sys.movable(i) ? 1 : 0)
       << '\n';
  }
  for (const RadialBond& b : sys.radial_bonds()) {
    os << "rbond " << sys.external_id(b.a) << ' ' << sys.external_id(b.b) << ' ' << b.k << ' '
       << b.r0 << '\n';
  }
  for (const AngularBond& b : sys.angular_bonds()) {
    os << "abond " << sys.external_id(b.a) << ' ' << sys.external_id(b.b) << ' '
       << sys.external_id(b.c) << ' ' << b.k << ' ' << b.theta0 << '\n';
  }
  for (const TorsionBond& b : sys.torsion_bonds()) {
    os << "tbond " << sys.external_id(b.a) << ' ' << sys.external_id(b.b) << ' '
       << sys.external_id(b.c) << ' ' << sys.external_id(b.d) << ' ' << b.k << ' ' << b.n
       << ' ' << b.phi0 << '\n';
  }
}

inline std::string scene_text(const MolecularSystem& sys) {
  std::ostringstream os;
  os << "mws 1\n";
  save_scene_body(os, sys);
  return os.str();
}

inline std::string checkpoint_text(const MolecularSystem& sys, std::span<const Vec3> nlist_ref) {
  std::ostringstream os;
  os << "mws 2\n";
  save_scene_body(os, sys);
  for (int ext = 0; ext < sys.n_atoms(); ++ext) {
    const Vec3& a = sys.accelerations()[static_cast<std::size_t>(sys.index_of_external(ext))];
    os << "acc " << a.x << ' ' << a.y << ' ' << a.z << '\n';
  }
  for (int ext = 0; ext < sys.n_atoms(); ++ext) {
    const Vec3& r = nlist_ref[static_cast<std::size_t>(sys.index_of_external(ext))];
    os << "nref " << r.x << ' ' << r.y << ' ' << r.z << '\n';
  }
  return os.str();
}

inline MolecularSystem load_scene(const std::string& text, std::vector<Vec3>* nlist_ref) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    throw ContractError("scene line " + std::to_string(line_no) + ": " + why);
  };

  std::optional<Box> box;
  AtomTypeTable types;
  std::optional<MolecularSystem> sys;
  bool header_seen = false;
  int version = 0;
  std::size_t n_acc = 0;
  std::vector<Vec3> refs;

  auto ensure_system = [&]() -> MolecularSystem& {
    if (!sys.has_value()) {
      if (!box.has_value()) fail("atom before box line");
      if (types.n() == 0) fail("atom before any type line");
      sys.emplace(types, *box);
    }
    return *sys;
  };

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "mws") {
      if (!(in >> version) || (version != 1 && version != 2)) {
        fail("unsupported scene version");
      }
      header_seen = true;
    } else if (kind == "acc") {
      if (version != 2) fail("checkpoint record 'acc' in a version-1 scene");
      Vec3 a;
      if (!(in >> a.x >> a.y >> a.z)) fail("malformed acc");
      MolecularSystem& s = ensure_system();
      if (n_acc >= static_cast<std::size_t>(s.n_atoms())) fail("more acc records than atoms");
      s.accelerations()[n_acc++] = a;
    } else if (kind == "nref") {
      if (version != 2) fail("checkpoint record 'nref' in a version-1 scene");
      Vec3 r;
      if (!(in >> r.x >> r.y >> r.z)) fail("malformed nref");
      if (refs.size() >= static_cast<std::size_t>(ensure_system().n_atoms())) {
        fail("more nref records than atoms");
      }
      refs.push_back(r);
    } else if (kind == "box") {
      Box b;
      if (!(in >> b.lo.x >> b.lo.y >> b.lo.z >> b.hi.x >> b.hi.y >> b.hi.z)) {
        fail("malformed box");
      }
      box = b;
    } else if (kind == "type") {
      AtomType t;
      if (!(in >> t.name >> t.mass >> t.lj_epsilon >> t.lj_sigma)) fail("malformed type");
      if (sys.has_value()) fail("type after first atom");
      types.add(std::move(t));
    } else if (kind == "atom") {
      int type_id = 0, movable = 1;
      Vec3 p, v;
      double q = 0.0;
      if (!(in >> type_id >> p.x >> p.y >> p.z >> v.x >> v.y >> v.z >> q >> movable)) {
        fail("malformed atom");
      }
      try {
        ensure_system().add_atom(type_id, p, v, q, movable != 0);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else if (kind == "rbond") {
      RadialBond b;
      if (!(in >> b.a >> b.b >> b.k >> b.r0)) fail("malformed rbond");
      try {
        ensure_system().add_radial_bond(b);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else if (kind == "abond") {
      AngularBond b;
      if (!(in >> b.a >> b.b >> b.c >> b.k >> b.theta0)) fail("malformed abond");
      try {
        ensure_system().add_angular_bond(b);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else if (kind == "tbond") {
      TorsionBond b;
      if (!(in >> b.a >> b.b >> b.c >> b.d >> b.k >> b.n >> b.phi0)) fail("malformed tbond");
      try {
        ensure_system().add_torsion_bond(b);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else {
      fail("unknown record '" + kind + "'");
    }
  }
  line_no = 0;
  if (!header_seen) fail("missing 'mws 1' header");
  if (!sys.has_value()) fail("scene contains no atoms");
  const auto n_atoms = static_cast<std::size_t>(sys->n_atoms());
  if (n_acc != 0 && n_acc != n_atoms) fail("checkpoint has fewer acc records than atoms");
  if (!refs.empty() && refs.size() != n_atoms) {
    fail("checkpoint has fewer nref records than atoms");
  }
  if (nlist_ref != nullptr) *nlist_ref = std::move(refs);
  return std::move(*sys);
}

}  // namespace mwx::md::oracle
