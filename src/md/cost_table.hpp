// Arithmetic-cost model of the MD kernels, in core cycles.
//
// The traced execution charges these per-operation costs to the machine
// simulator.  Values approximate a scalar (non-SIMD) JIT-compiled Java kernel on
// a Nehalem-class core (the paper's reference hardware); EXPERIMENTS.md
// records the calibration.  Only ratios matter for the reproduced shapes:
// Coulomb pairs are several times costlier than LJ pairs (sqrt + divides),
// bonded terms costlier still (trig, up to four atoms).
#pragma once

#include <map>
#include <string>

namespace mwx::md {

// --- Phase-tag vocabulary ------------------------------------------------------
// The single source of truth for engine phase-tag names (md::PhaseId values).
// Every artifact emitter (PMU_*, TRACE_*, PLAN_*) embeds this table so
// consumers (tools/mwx-report) never carry their own copy.  Tag 0 is untagged
// pool work; engine.cpp static_asserts the PhaseId enum against these indices.
// A retired tag keeps its slot as nullptr, so no later phase reuses its
// number in artifacts keyed on it.
inline constexpr const char* kPhaseTagNames[] = {
    "untagged",                // 0
    nullptr,                   // 1  retired (the predictor, now in 11 and 13)
    nullptr,                   // 2  retired (the nlist check, now in 11 and 13)
    nullptr,                   // 3  retired (the unoverlapped CSR count pass)
    "forces",                  // 4  kPhaseForces
    nullptr,                   // 5  retired (the reduction, now in 12 and 13)
    nullptr,                   // 6  retired (the corrector, now in 12 and 13)
    "overlap",                 // 7  kPhaseOverlap
    "bin",                     // 8  kPhaseBin
    "nbr-prefix",              // 9  kPhaseNbrPrefix
    "morton-sort",             // 10 kPhaseMortonSort
    "predict-check",           // 11 kPhasePredictCheck
    "reduce-correct",          // 12 kPhaseReduceCorrect
    "reduce-correct-predict",  // 13 kPhaseReduceCorrectPredict
};
inline constexpr int kNumPhaseTags = sizeof(kPhaseTagNames) / sizeof(kPhaseTagNames[0]);

// Stable name for a tag, or nullptr for retired tags and tags outside the
// engine vocabulary (consumers fall back to "phase-<tag>").
[[nodiscard]] inline const char* phase_tag_name(int tag) {
  return tag >= 0 && tag < kNumPhaseTags ? kPhaseTagNames[tag] : nullptr;
}

// The live tags as a map, in the shape the JSON emitters consume.
[[nodiscard]] inline std::map<int, std::string> phase_tag_name_map() {
  std::map<int, std::string> out;
  for (int t = 0; t < kNumPhaseTags; ++t) {
    if (kPhaseTagNames[t] != nullptr) out.emplace(t, kPhaseTagNames[t]);
  }
  return out;
}

struct CostTable {
  double predictor_atom = 28.0;
  double check_atom = 9.0;
  double nbr_candidate = 11.0;      // distance test against a cell occupant
  double nbr_accept = 7.0;          // appending one neighbor entry
  double nbr_count_store = 4.0;     // storing one atom's CSR row count
  double nbr_prefix_atom = 2.5;     // prefix-scan step per atom (parallel)
  double reorder_atom = 95.0;       // moving one atom's state in a Morton pass
  double lj_pair = 55.0;
  double coulomb_pair = 115.0;
  double radial_bond = 450.0;
  double angular_bond = 800.0;
  double torsion_bond = 1100.0;
  double reduce_atom_per_worker = 7.0;
  double corrector_atom = 22.0;
  double wall_check_atom = 6.0;

  // --- Rebuild pipeline ------------------------------------------------------
  // The simulator runs the rebuild as parallel phases (kPhaseBin /
  // kPhaseNbrPrefix / kPhaseMortonSort), so the modelled serial fraction
  // tracks the native pipeline's rather than the paper's all-serial
  // housekeeping.
  double bin_count_atom = 25.0;    // cell id + per-chunk histogram (parallel)
  double bin_scatter_atom = 20.0;  // stable in-order scatter (parallel); count +
                                   // scatter = 45 cycles per binned atom
  double bin_merge_cell = 6.0;     // per-cell block-prefix merge (parallel over cell blocks)
  double morton_sort_atom = 52.0;  // key build + LSD radix passes, per atom (parallel)
  double scene_format_atom = 900.0;  // formatting one atom record in the chunked serializer
  double rebuild_merge_residue = 260.0;  // serial block-scan anchor, per chunk, per scan

  // Short-lived Vec3 temporaries allocated per operation when the engine is
  // in Java-temporaries mode (Section V-B's convenience class).  The LJ
  // inner loop allocates per pair (the dominant churn); the Coulomb kernel
  // allocates its scratch vectors once per outer atom.
  int temps_lj_pair = 1;
  int temps_nbr_candidate = 2;  // dr vector + boxed distance of the test
  int temps_coulomb_pair = 0;
  int temps_coulomb_outer = 2;
  int temps_radial_bond = 1;
  int temps_angular_bond = 2;
  int temps_torsion_bond = 3;
  int temps_predictor_atom = 1;
  int temps_corrector_atom = 1;
  double temp_alloc_cycles = 14.0;  // bump-pointer allocation + header init
};

}  // namespace mwx::md
