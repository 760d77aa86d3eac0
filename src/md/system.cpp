#include "md/system.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/chunked.hpp"

namespace mwx::md {

namespace {

// v[k] = old v[new_order[k]], gathered over index-contiguous chunks into
// fresh, uninitialized storage: slot k has exactly one writer, so the result
// is the inline gather's for any chunk count.  One array at a time, so a
// permutation holds at most one array twice.
template <typename T>
void gather(PageVec<T>& v, const std::vector<int>& new_order, parallel::FixedThreadPool* pool,
            int n_chunks) {
  PageVec<T> next;
  next.resize_uninitialized(v.size());
  parallel::for_chunks(pool, n_chunks, static_cast<long long>(v.size()),
                       [&](int, long long b, long long e) {
    for (long long k = b; k < e; ++k) {
      next[static_cast<std::size_t>(k)] =
          v[static_cast<std::size_t>(new_order[static_cast<std::size_t>(k)])];
    }
  });
  v = std::move(next);
}

}  // namespace

int MolecularSystem::add_atom(int type, const Vec3& position, const Vec3& velocity,
                              double charge, bool movable) {
  require(type >= 0 && type < types_.n(), "unknown atom type");
  require(position.x >= box_.lo.x && position.x <= box_.hi.x && position.y >= box_.lo.y &&
              position.y <= box_.hi.y && position.z >= box_.lo.z && position.z <= box_.hi.z,
          "atom placed outside the box");
  const int i = n_atoms();
  pos_.push_back(position);
  vel_.push_back(movable ? velocity : Vec3{});
  acc_.push_back({});
  const double m = types_.at(type).mass;
  mass_.push_back(m);
  inv_mass_.push_back(movable ? 1.0 / m : 0.0);
  charge_.push_back(charge);
  type_.push_back(type);
  movable_.push_back(movable ? 1 : 0);
  if (charge != 0.0) charged_.push_back(i);
  if (movable) ++n_movable_;
  ext_id_.push_back(i);
  index_of_ext_.push_back(i);
  return i;
}

void MolecularSystem::permute(const std::vector<int>& new_order,
                              parallel::FixedThreadPool* pool, int n_chunks) {
  const int n = n_atoms();
  require(static_cast<int>(new_order.size()) == n, "permutation size mismatch");
  // Build the inverse first — this also validates that new_order is a
  // genuine permutation before anything is moved.
  std::vector<int> inverse(static_cast<std::size_t>(n), -1);
  for (int k = 0; k < n; ++k) {
    const int old = new_order[static_cast<std::size_t>(k)];
    require(old >= 0 && old < n, "permutation entry out of range");
    require(inverse[static_cast<std::size_t>(old)] == -1, "permutation entry repeated");
    inverse[static_cast<std::size_t>(old)] = k;
  }

  gather(pos_, new_order, pool, n_chunks);
  gather(vel_, new_order, pool, n_chunks);
  gather(acc_, new_order, pool, n_chunks);
  gather(mass_, new_order, pool, n_chunks);
  gather(inv_mass_, new_order, pool, n_chunks);
  gather(charge_, new_order, pool, n_chunks);
  gather(type_, new_order, pool, n_chunks);
  gather(movable_, new_order, pool, n_chunks);
  gather(ext_id_, new_order, pool, n_chunks);
  // ext_id_ is a permutation, so the inverse scatter writes each slot once.
  parallel::for_chunks(pool, n_chunks, n, [&](int, long long b, long long e) {
    for (long long k = b; k < e; ++k) {
      index_of_ext_[static_cast<std::size_t>(ext_id_[static_cast<std::size_t>(k)])] =
          static_cast<int>(k);
    }
  });

  // The charged list must stay ascending — the Coulomb loop's triangular
  // decomposition and its deterministic accumulation order depend on it.
  for (int& c : charged_) c = inverse[static_cast<std::size_t>(c)];
  std::sort(charged_.begin(), charged_.end());

  for (RadialBond& b : radial_) {
    b.a = inverse[static_cast<std::size_t>(b.a)];
    b.b = inverse[static_cast<std::size_t>(b.b)];
  }
  for (AngularBond& b : angular_) {
    b.a = inverse[static_cast<std::size_t>(b.a)];
    b.b = inverse[static_cast<std::size_t>(b.b)];
    b.c = inverse[static_cast<std::size_t>(b.c)];
  }
  for (TorsionBond& b : torsion_) {
    b.a = inverse[static_cast<std::size_t>(b.a)];
    b.b = inverse[static_cast<std::size_t>(b.b)];
    b.c = inverse[static_cast<std::size_t>(b.c)];
    b.d = inverse[static_cast<std::size_t>(b.d)];
  }
  // Exclusions key on raw index pairs; rebuild them from the (only) source
  // of exclusions, the radial bond list.
  exclusions_.clear();
  for (const RadialBond& b : radial_) exclusions_.insert(pair_key(b.a, b.b));
}

void MolecularSystem::add_radial_bond(RadialBond b) {
  require(b.a >= 0 && b.a < n_atoms() && b.b >= 0 && b.b < n_atoms() && b.a != b.b,
          "radial bond indices invalid");
  exclusions_.insert(pair_key(b.a, b.b));
  radial_.push_back(b);
}

void MolecularSystem::add_angular_bond(AngularBond b) {
  require(b.a >= 0 && b.a < n_atoms() && b.b >= 0 && b.b < n_atoms() && b.c >= 0 &&
              b.c < n_atoms() && b.a != b.b && b.b != b.c && b.a != b.c,
          "angular bond indices invalid");
  angular_.push_back(b);
}

void MolecularSystem::add_torsion_bond(TorsionBond b) {
  require(b.a >= 0 && b.a < n_atoms() && b.b >= 0 && b.b < n_atoms() && b.c >= 0 &&
              b.c < n_atoms() && b.d >= 0 && b.d < n_atoms(),
          "torsion bond indices invalid");
  torsion_.push_back(b);
}

double MolecularSystem::lj_epsilon(int ti, int tj) const {
  return std::sqrt(types_.at(ti).lj_epsilon * types_.at(tj).lj_epsilon);
}

double MolecularSystem::lj_sigma(int ti, int tj) const {
  return 0.5 * (types_.at(ti).lj_sigma + types_.at(tj).lj_sigma);
}

Vec3 MolecularSystem::total_momentum() const {
  Vec3 p;
  for (int i = 0; i < n_atoms(); ++i) {
    if (movable(i)) p += vel_[static_cast<std::size_t>(i)] * mass(i);
  }
  return p;
}

double MolecularSystem::kinetic_energy() const {
  double ke = 0.0;
  for (int i = 0; i < n_atoms(); ++i) {
    if (movable(i)) ke += 0.5 * mass(i) * vel_[static_cast<std::size_t>(i)].norm2();
  }
  return ke;
}

}  // namespace mwx::md
