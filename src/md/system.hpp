// MolecularSystem — atoms, species, bonds and the simulation box.
//
// Atom state is stored SoA for the C++ engine; how the *modelled Java heap*
// lays the same state out is a separate concern (md/layout.hpp), so the
// physics is identical across layout experiments.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/page_vec.hpp"
#include "common/require.hpp"
#include "common/vec3.hpp"
#include "md/types.hpp"

namespace mwx::parallel {
class FixedThreadPool;
}  // namespace mwx::parallel

namespace mwx::md {

// Axis-aligned box with reflective walls (Molecular Workbench confines its
// scene to a box; we reflect rather than wrap).
struct Box {
  Vec3 lo{0, 0, 0};
  Vec3 hi{10, 10, 10};
  [[nodiscard]] Vec3 extent() const { return hi - lo; }
};

class MolecularSystem {
 public:
  MolecularSystem(AtomTypeTable types, Box box) : types_(std::move(types)), box_(box) {}

  // Appends an atom; returns its index.  `movable=false` marks fixed
  // scaffolding like nanocar's gold platform (excluded from integration and
  // from platform-platform force pairs).
  int add_atom(int type, const Vec3& position, const Vec3& velocity = {}, double charge = 0.0,
               bool movable = true);

  void add_radial_bond(RadialBond b);
  void add_angular_bond(AngularBond b);
  void add_torsion_bond(TorsionBond b);

  [[nodiscard]] int n_atoms() const { return static_cast<int>(pos_.size()); }
  [[nodiscard]] int n_charged() const { return static_cast<int>(charged_.size()); }
  [[nodiscard]] int n_movable() const { return n_movable_; }

  [[nodiscard]] const Box& box() const { return box_; }
  [[nodiscard]] const AtomTypeTable& types() const { return types_; }

  // Hot per-atom state lives in PageVec (common/page_vec.hpp).  NUMA
  // placement is modelled, not performed: see HeapModel::configure_numa.
  [[nodiscard]] const PageVec<Vec3>& positions() const { return pos_; }
  [[nodiscard]] PageVec<Vec3>& positions() { return pos_; }
  [[nodiscard]] const PageVec<Vec3>& velocities() const { return vel_; }
  [[nodiscard]] PageVec<Vec3>& velocities() { return vel_; }
  [[nodiscard]] const PageVec<Vec3>& accelerations() const { return acc_; }
  [[nodiscard]] PageVec<Vec3>& accelerations() { return acc_; }

  [[nodiscard]] double mass(int i) const { return mass_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] double inv_mass(int i) const { return inv_mass_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] double charge(int i) const { return charge_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int type_of(int i) const { return type_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] bool movable(int i) const { return movable_[static_cast<std::size_t>(i)] != 0; }

  // Indices of charged atoms, ascending — the Coulomb loop's working list.
  [[nodiscard]] const std::vector<int>& charged_indices() const { return charged_; }

  // --- Stable identity across reordering -------------------------------------
  // Every atom keeps the external ID it was created with (its creation
  // index), no matter how often permute() shuffles the storage order.  Scene
  // I/O and observables that must survive a reorder address atoms by
  // external ID; the hot loops keep using raw indices.
  [[nodiscard]] int external_id(int i) const { return ext_id_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int index_of_external(int ext) const {
    return index_of_ext_[static_cast<std::size_t>(ext)];
  }

  // Applies a storage-order permutation: new_order[k] = current index of the
  // atom to be placed k-th.  All per-atom arrays move together, bond records
  // and the charged list are remapped, and exclusions are rebuilt, so the
  // physics is invariant — only the memory order (and thus every raw index)
  // changes.  Throws if new_order is not a permutation of [0, n_atoms).
  // The per-atom gathers fan out over index-contiguous chunks of the new
  // order (parallel::for_chunks); each destination slot is written once, so
  // the result does not depend on the pool or chunk count.  A null pool runs
  // them inline as one chunk.
  void permute(const std::vector<int>& new_order, parallel::FixedThreadPool* pool = nullptr,
               int n_chunks = 1);

  [[nodiscard]] const std::vector<RadialBond>& radial_bonds() const { return radial_; }
  [[nodiscard]] const std::vector<AngularBond>& angular_bonds() const { return angular_; }
  [[nodiscard]] const std::vector<TorsionBond>& torsion_bonds() const { return torsion_; }
  [[nodiscard]] int n_bonds_total() const {
    return static_cast<int>(radial_.size() + angular_.size() + torsion_.size());
  }

  // True when (i, j) are directly bonded and therefore excluded from the
  // non-bonded LJ interaction (standard MD exclusion rule; keeps bonded
  // systems like nanocar genuinely bond-dominated).
  [[nodiscard]] bool excluded(int i, int j) const {
    return !exclusions_.empty() && exclusions_.count(pair_key(i, j)) > 0;
  }

  // Combined LJ parameters for a type pair (Lorentz–Berthelot mixing).
  [[nodiscard]] double lj_epsilon(int ti, int tj) const;
  [[nodiscard]] double lj_sigma(int ti, int tj) const;

  // Total momentum (movable atoms) — a conserved quantity in a wall-free run.
  [[nodiscard]] Vec3 total_momentum() const;
  [[nodiscard]] double kinetic_energy() const;

 private:
  static std::uint64_t pair_key(int i, int j) {
    const std::uint64_t lo = static_cast<std::uint64_t>(i < j ? i : j);
    const std::uint64_t hi = static_cast<std::uint64_t>(i < j ? j : i);
    return (lo << 32) | hi;
  }

  AtomTypeTable types_;
  Box box_;
  std::unordered_set<std::uint64_t> exclusions_;
  // Every per-atom array is a PageVec, so permute() gathers into storage it
  // never value-initializes.
  PageVec<Vec3> pos_, vel_, acc_;
  PageVec<double> mass_, inv_mass_, charge_;
  PageVec<int> type_;
  PageVec<char> movable_;
  std::vector<int> charged_;
  PageVec<int> ext_id_;        // ext_id_[index] = creation index
  PageVec<int> index_of_ext_;  // inverse of ext_id_
  std::vector<RadialBond> radial_;
  std::vector<AngularBond> angular_;
  std::vector<TorsionBond> torsion_;
  int n_movable_ = 0;
};

}  // namespace mwx::md
