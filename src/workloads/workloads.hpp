// The representative benchmarks of Table I, plus generic generators used by
// tests and examples.
//
//   benchmark  atoms  charged  bonds  dominant computation
//   nanocar      989        0   2277  bonded forces
//   salt         800      800      0  ionic (Coulomb)
//   Al-1000     1000        0      0  Lennard-Jones
//
// The MW repository files are not redistributable, so each benchmark is a
// synthetic construction matched to Table I's characteristics: nanocar is a
// bonded "car" lattice resting on an immovable gold platform (the platform
// atoms do not interact with one another); salt is a rock-salt arrangement
// of 400 Na+ and 400 Cl-; Al-1000 is a dense fcc aluminium block struck by
// one fast gold atom, driving frequent neighbor-list rebuilds.
//
// Atom *creation order* is shuffled (seeded) in salt and Al-1000: a Java
// object array populated from a scene file has no particular spatial order,
// which is what makes Lennard-Jones gathers irregular in memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "md/engine.hpp"
#include "md/system.hpp"

namespace mwx::workloads {

struct BenchmarkSpec {
  std::string name;
  md::MolecularSystem system;
  md::EngineConfig engine;   // recommended dt/cutoff/skin for this system
  std::string dominant;      // Table I's "dominant computation type"
};

// --- Table I benchmarks -----------------------------------------------------
BenchmarkSpec make_nanocar(std::uint64_t seed = 11);
BenchmarkSpec make_salt(std::uint64_t seed = 22);
BenchmarkSpec make_al1000(std::uint64_t seed = 33);

// All three, in Table I order.
std::vector<std::string> benchmark_names();
BenchmarkSpec make_benchmark(const std::string& name, std::uint64_t seed = 7);

// --- Generic generators (tests, examples, ablations) -------------------------
// A cubic LJ gas/liquid of `n` atoms at the given number density (atoms/Å^3)
// and temperature, single species.
md::MolecularSystem make_lj_gas(int n, double density, double temperature_k,
                                std::uint64_t seed);

// Like make_lj_gas, but with atom creation order shuffled (the scene-file
// idiom above) and a net-neutral +-1e charge pattern on ~`charged_fraction`
// of the atoms.  This is the gas16k benchmark workload: irregular gathers
// through both the LJ and Coulomb kernels at once.
md::MolecularSystem make_lj_coulomb_gas(int n, double density, double temperature_k,
                                        double charged_fraction, std::uint64_t seed);

// A bonded linear chain of `n` atoms (radial + angular + torsion terms).
md::MolecularSystem make_chain(int n, std::uint64_t seed);

// A rock-salt ionic cluster of `n` ions (n even), used for scaled Coulomb
// ablations (e.g. the PME crossover bench).
md::MolecularSystem make_ionic(int n, std::uint64_t seed);

// --- Workload-axis generators (the 100k–1M scaling sweep) --------------------
// A bulk fcc argon crystal of ~`n` atoms (rounded up to a whole u x u x u
// block of 4-atom fcc unit cells, a = 5.26 Å) with thermal velocities.
// Homogeneous density — every cell holds the same few atoms, so this is the
// pure workload-axis scaling point: rebuild cost grows O(n) with no
// occupancy skew.  Creation order is shuffled (the scene-file idiom).
md::MolecularSystem make_bulk_crystal(int n, double temperature_k, std::uint64_t seed);

// A solvated droplet: ~half the atoms as a dense fcc liquid sphere at the
// box center, the rest as a sparse vapor lattice around it.  Cell occupancy
// spans dense-liquid to near-empty in one system — the irregular-occupancy
// stress case for the parallel binning/prefix passes (chunk histograms see
// wildly uneven rows; the output must still be byte-identical to serial).
// Creation order is shuffled.
md::MolecularSystem make_droplet(int n, double temperature_k, std::uint64_t seed);

// Table I row data for reporting.
struct TableRow {
  std::string name;
  int n_atoms = 0;
  int n_charged = 0;
  int n_bonds = 0;
  std::string dominant;
};
TableRow table1_row(const BenchmarkSpec& spec);

}  // namespace mwx::workloads
