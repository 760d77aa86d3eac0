#include "md/scene_io.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <system_error>

#include "common/require.hpp"
#include "parallel/chunked.hpp"

namespace mwx::md {

namespace {

// --- Writer ------------------------------------------------------------------

// Longest field text: "%.17g" of a double is at most 24 characters
// ("-2.2250738585072014e-308"), an int at most 11.
constexpr std::size_t kMaxFieldChars = 24;

char* put_field(char* p, char* end, double v) {
  // Specified as printf("%.17g"), which is what an ostream at
  // setprecision(17) writes: the historical .mws bytes.
  return std::to_chars(p, end, v, std::chars_format::general, 17).ptr;
}

char* put_field(char* p, char* end, int v) { return std::to_chars(p, end, v).ptr; }

// Appends " f1 f2 ...\n": the fields of one record after its leading word.
template <typename... F>
void put_fields(std::string& out, F... fields) {
  char buf[sizeof...(F) * (kMaxFieldChars + 1) + 1];
  char* const end = buf + sizeof buf;
  char* p = buf;
  ((*p++ = ' ', p = put_field(p, end, fields)), ...);
  *p++ = '\n';
  out.append(buf, p);
}

// Appends the per-record lines for external IDs [0, n) in order.  With a
// pool, index-contiguous chunks format into private strings that are joined
// in chunk order; a record's bytes depend only on its own fields, so the
// joined text is exactly the serial text.
template <typename Emit>
void put_records(std::string& out, int n, parallel::FixedThreadPool* pool, int n_chunks,
                 const Emit& emit) {
  if (pool == nullptr || n_chunks <= 1 || n < 2) {
    for (int ext = 0; ext < n; ++ext) emit(out, ext);
    return;
  }
  const int chunks = std::min(n_chunks, n);
  std::vector<std::string> parts(static_cast<std::size_t>(chunks));
  parallel::for_chunks(pool, chunks, n, [&](int k, long long b, long long e) {
    std::string& part = parts[static_cast<std::size_t>(k)];
    for (long long ext = b; ext < e; ++ext) emit(part, static_cast<int>(ext));
  });
  for (const std::string& part : parts) out += part;
}

std::string format_body(int version, const MolecularSystem& sys, std::size_t bytes_per_atom,
                        parallel::FixedThreadPool* pool, int n_chunks) {
  std::string out;
  out.reserve(static_cast<std::size_t>(sys.n_atoms()) * bytes_per_atom + 4096);
  out += version == 1 ? "mws 1\n" : "mws 2\n";
  const Box& box = sys.box();
  out += "box";
  put_fields(out, box.lo.x, box.lo.y, box.lo.z, box.hi.x, box.hi.y, box.hi.z);
  for (int t = 0; t < sys.types().n(); ++t) {
    const AtomType& ty = sys.types().at(t);
    out += "type ";
    out += ty.name;
    put_fields(out, ty.mass, ty.lj_epsilon, ty.lj_sigma);
  }
  // Atoms are written in external-ID (creation) order and bonds reference
  // external IDs, so a scene saved after any number of Morton reorders is
  // byte-identical to the same scene saved before them.  load_scene assigns
  // external ID == index, closing the round trip.
  put_records(out, sys.n_atoms(), pool, n_chunks, [&sys](std::string& s, int ext) {
    const int i = sys.index_of_external(ext);
    const Vec3& p = sys.positions()[static_cast<std::size_t>(i)];
    const Vec3& v = sys.velocities()[static_cast<std::size_t>(i)];
    s += "atom";
    put_fields(s, sys.type_of(i), p.x, p.y, p.z, v.x, v.y, v.z, sys.charge(i),
               sys.movable(i) ? 1 : 0);
  });
  // Bond records stay serial: the bond lists are tiny next to a 100k–1M-atom
  // record block, and their order is list order, not external-ID order.
  for (const RadialBond& b : sys.radial_bonds()) {
    out += "rbond";
    put_fields(out, sys.external_id(b.a), sys.external_id(b.b), b.k, b.r0);
  }
  for (const AngularBond& b : sys.angular_bonds()) {
    out += "abond";
    put_fields(out, sys.external_id(b.a), sys.external_id(b.b), sys.external_id(b.c), b.k,
               b.theta0);
  }
  for (const TorsionBond& b : sys.torsion_bonds()) {
    out += "tbond";
    put_fields(out, sys.external_id(b.a), sys.external_id(b.b), sys.external_id(b.c),
               sys.external_id(b.d), b.k, b.n, b.phi0);
  }
  return out;
}

// Typical record sizes, for one up-front reservation of the output string.
constexpr std::size_t kAtomLineBytes = 200;
constexpr std::size_t kVecLineBytes = 80;

// --- Reader ------------------------------------------------------------------

// The separators between the fields of a record: the C-locale whitespace an
// istream skips, less '\n', which ends the record.
bool is_sep(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'; }

// Cursor over the fields of one record line.  Each read returns nullptr on
// success or what was wrong with the field.
class Fields {
 public:
  explicit Fields(std::string_view line) : p_(line.data()), end_(line.data() + line.size()) {}

  // The next separator-delimited token; empty at the end of the line.
  std::string_view word() {
    skip();
    const char* b = p_;
    while (p_ != end_ && !is_sep(*p_)) ++p_;
    return {b, static_cast<std::size_t>(p_ - b)};
  }

  const char* read(std::string& v) {
    const std::string_view w = word();
    if (w.empty()) return "missing field";
    v.assign(w);
    return nullptr;
  }

  const char* read(double& v) {
    const char* s = start();
    if (s == nullptr) return "missing field";
    const auto [ptr, ec] = std::from_chars(s, end_, v, std::chars_format::general);
    if (ec == std::errc::result_out_of_range) return "number out of range";
    if (ec != std::errc{} || (ptr != end_ && !is_sep(*ptr))) return "malformed number";
    // from_chars accepts "nan" and "inf"; the format does not.
    if (!std::isfinite(v)) return "non-finite number";
    p_ = ptr;
    return nullptr;
  }

  const char* read(int& v) {
    const char* s = start();
    if (s == nullptr) return "missing field";
    const auto [ptr, ec] = std::from_chars(s, end_, v);
    if (ec == std::errc::result_out_of_range) return "number out of range";
    if (ec != std::errc{}) return "malformed number";
    if (ptr != end_ && !is_sep(*ptr)) return "non-integer field";
    p_ = ptr;
    return nullptr;
  }

  [[nodiscard]] bool at_end() {
    skip();
    return p_ == end_;
  }

 private:
  void skip() {
    while (p_ != end_ && is_sep(*p_)) ++p_;
  }

  // First character of the next number for from_chars, past an optional
  // leading '+' (which from_chars does not take); nullptr at the end.
  const char* start() {
    skip();
    if (p_ == end_) return nullptr;
    const char* s = p_;
    if (*s == '+' && s + 1 != end_ && s[1] != '-' && s[1] != '+') ++s;
    return s;
  }

  const char* p_;
  const char* end_;
};

// One .mws document, parsed a line at a time.  The grammar and the order of
// checks (and so every error message and line number) are the same for the
// string_view and the istream entry points, which both feed lines here.
class SceneParser {
 public:
  // Feeds every complete line of `text`; returns the unfinished tail (the
  // bytes after the last '\n').
  std::string_view lines(std::string_view text) {
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p != end) {
      const auto* nl =
          static_cast<const char*>(std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (nl == nullptr) break;
      line({p, static_cast<std::size_t>(nl - p)});
      p = nl + 1;
    }
    return {p, static_cast<std::size_t>(end - p)};
  }

  void line(std::string_view text) {
    ++line_no_;
    if (text.empty() || text[0] == '#') return;
    Fields in(text);
    const std::string_view kind = in.word();
    if (kind == "atom") {
      int type_id = 0, movable = 1;
      Vec3 p, v;
      double q = 0.0;
      record(in, kind, type_id, p.x, p.y, p.z, v.x, v.y, v.z, q, movable);
      MolecularSystem& s = system();
      try {
        s.add_atom(type_id, p, v, q, movable != 0);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else if (kind == "acc") {
      if (version_ != 2) fail("checkpoint record 'acc' in a version-1 scene");
      Vec3 a;
      record(in, kind, a.x, a.y, a.z);
      MolecularSystem& s = system();
      if (n_acc_ >= static_cast<std::size_t>(s.n_atoms())) fail("more acc records than atoms");
      s.accelerations()[n_acc_++] = a;
    } else if (kind == "nref") {
      if (version_ != 2) fail("checkpoint record 'nref' in a version-1 scene");
      Vec3 r;
      record(in, kind, r.x, r.y, r.z);
      if (refs_.size() >= static_cast<std::size_t>(system().n_atoms())) {
        fail("more nref records than atoms");
      }
      refs_.push_back(r);
    } else if (kind == "mws") {
      int version = 0;
      if (in.read(version) != nullptr || (version != 1 && version != 2)) {
        fail("unsupported scene version");
      }
      record(in, kind);
      version_ = version;
      header_seen_ = true;
    } else if (kind == "box") {
      Box b;
      record(in, kind, b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z);
      box_ = b;
    } else if (kind == "type") {
      AtomType t;
      record(in, kind, t.name, t.mass, t.lj_epsilon, t.lj_sigma);
      if (sys_.has_value()) fail("type after first atom");
      types_.add(std::move(t));
    } else if (kind == "rbond") {
      RadialBond b;
      record(in, kind, b.a, b.b, b.k, b.r0);
      add_bond([&](MolecularSystem& s) { s.add_radial_bond(b); });
    } else if (kind == "abond") {
      AngularBond b;
      record(in, kind, b.a, b.b, b.c, b.k, b.theta0);
      add_bond([&](MolecularSystem& s) { s.add_angular_bond(b); });
    } else if (kind == "tbond") {
      TorsionBond b;
      record(in, kind, b.a, b.b, b.c, b.d, b.k, b.n, b.phi0);
      add_bond([&](MolecularSystem& s) { s.add_torsion_bond(b); });
    } else {
      fail("unknown record '" + std::string(kind) + "'");
    }
  }

  MolecularSystem finish(std::vector<Vec3>* nlist_ref) {
    line_no_ = 0;  // whole-document errors carry no line
    if (!header_seen_) fail("missing 'mws 1' header");
    if (!sys_.has_value()) fail("scene contains no atoms");
    const auto n_atoms = static_cast<std::size_t>(sys_->n_atoms());
    if (n_acc_ != 0 && n_acc_ != n_atoms) fail("checkpoint has fewer acc records than atoms");
    if (!refs_.empty() && refs_.size() != n_atoms) {
      fail("checkpoint has fewer nref records than atoms");
    }
    if (nlist_ref != nullptr) *nlist_ref = std::move(refs_);
    return std::move(*sys_);
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ContractError("scene line " + std::to_string(line_no_) + ": " + why);
  }

  // Reads every field of a record in order, then requires the line to end.
  template <typename... T>
  void record(Fields& in, std::string_view kind, T&... fields) {
    const char* why = nullptr;
    ((why = why != nullptr ? why : in.read(fields)), ...);
    if (why == nullptr && !in.at_end()) why = "extra tokens after the last field";
    if (why != nullptr) fail("malformed " + std::string(kind) + ": " + why);
  }

  template <typename Add>
  void add_bond(const Add& add) {
    MolecularSystem& s = system();
    try {
      add(s);
    } catch (const ContractError& e) {
      fail(e.what());
    }
  }

  // Atom and bond records need box and types first; the system is built
  // at the first of them.
  MolecularSystem& system() {
    if (!sys_.has_value()) {
      if (!box_.has_value()) fail("atom before box line");
      if (types_.n() == 0) fail("atom before any type line");
      sys_.emplace(types_, *box_);
    }
    return *sys_;
  }

  long long line_no_ = 0;
  int version_ = 0;
  bool header_seen_ = false;
  std::optional<Box> box_;
  AtomTypeTable types_;
  std::optional<MolecularSystem> sys_;
  std::size_t n_acc_ = 0;
  std::vector<Vec3> refs_;
};

// Block size of the istream reader: its whole buffer, unless one line is
// longer.
constexpr std::size_t kReadBlock = std::size_t{1} << 16;

}  // namespace

std::string format_scene(const MolecularSystem& sys, parallel::FixedThreadPool* pool,
                         int n_chunks) {
  return format_body(1, sys, kAtomLineBytes, pool, n_chunks);
}

std::string format_checkpoint(const MolecularSystem& sys, std::span<const Vec3> nlist_ref,
                              parallel::FixedThreadPool* pool, int n_chunks) {
  require(static_cast<int>(nlist_ref.size()) == sys.n_atoms(),
          "checkpoint needs one neighbor reference position per atom");
  std::string out = format_body(2, sys, kAtomLineBytes + 2 * kVecLineBytes, pool, n_chunks);
  // Checkpoint records, external-ID order like every per-atom record above.
  put_records(out, sys.n_atoms(), pool, n_chunks, [&sys](std::string& s, int ext) {
    const Vec3& a = sys.accelerations()[static_cast<std::size_t>(sys.index_of_external(ext))];
    s += "acc";
    put_fields(s, a.x, a.y, a.z);
  });
  put_records(out, sys.n_atoms(), pool, n_chunks, [&sys, nlist_ref](std::string& s, int ext) {
    const Vec3& r = nlist_ref[static_cast<std::size_t>(sys.index_of_external(ext))];
    s += "nref";
    put_fields(s, r.x, r.y, r.z);
  });
  return out;
}

void save_scene(std::ostream& os, const MolecularSystem& sys) {
  const std::string text = format_scene(sys);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void save_checkpoint_scene(std::ostream& os, const MolecularSystem& sys,
                           std::span<const Vec3> nlist_ref) {
  const std::string text = format_checkpoint(sys, nlist_ref);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

MolecularSystem load_scene(std::string_view text, std::vector<Vec3>* nlist_ref) {
  SceneParser parser;
  const std::string_view tail = parser.lines(text);
  if (!tail.empty()) parser.line(tail);
  return parser.finish(nlist_ref);
}

MolecularSystem load_scene(std::istream& is, std::vector<Vec3>* nlist_ref) {
  SceneParser parser;
  std::vector<char> buf(kReadBlock);
  std::size_t kept = 0;  // an unfinished line carried to the front of buf
  while (is) {
    if (kept == buf.size()) buf.resize(2 * buf.size());
    is.read(buf.data() + kept, static_cast<std::streamsize>(buf.size() - kept));
    const std::size_t filled = kept + static_cast<std::size_t>(is.gcount());
    const std::string_view tail = parser.lines({buf.data(), filled});
    kept = tail.size();
    std::memmove(buf.data(), tail.data(), kept);
  }
  if (kept != 0) parser.line({buf.data(), kept});
  return parser.finish(nlist_ref);
}

void save_scene_file(const std::string& path, const MolecularSystem& sys) {
  std::ofstream out(path);
  require(out.good(), "cannot open scene file for writing: " + path);
  save_scene(out, sys);
  require(out.good(), "failed writing scene file: " + path);
}

MolecularSystem load_scene_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open scene file: " + path);
  return load_scene(in);
}

}  // namespace mwx::md
