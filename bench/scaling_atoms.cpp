// Workload-axis scaling: 10k -> 1M atoms, serial vs parallel rebuild.
//
// The paper parallelizes the force phases and leaves the housekeeping —
// cell binning, the CSR prefix sum, any reordering pass — serial on the
// master, which is invisible at 1k atoms and an Amdahl wall at 1M.  This
// bench sweeps a bulk fcc argon crystal across {10k, 100k, 1M} atoms and,
// at every size:
//
//   * times each rebuild pass serial vs parallel (bin, prefix scan, Morton
//     sort, scene serialization) and VERIFIES the parallel output is
//     bit/byte-identical to the serial reference at 1/2/4/T threads;
//   * runs the full native engine with parallel_rebuild off vs on
//     (reorder_interval = 1, so every rebuild exercises the radix sort) and
//     verifies the per-step total energies are bitwise equal;
//   * repeats the bin/prefix verification on the solvated-droplet workload,
//     whose wildly uneven cell occupancy is the stress case for the chunk
//     histograms.
//
// Results land in BENCH_scaling.json; any verification failure makes the
// process exit nonzero, so CI can gate on determinism, not just speed.
//
// Usage: scaling_atoms [max_atoms=1000000] [engine_steps=3] [threads=4]
//                      [context_steps=0]
// A positive context_steps additionally prints the original simulated
// quad-core refresh-rate table from the paper's introduction.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "md/cell_grid.hpp"
#include "md/morton.hpp"
#include "md/neighbor_list.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/scene_cache.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool grids_identical(const md::CellGrid& a, const md::CellGrid& b) {
  if (a.n_cells() != b.n_cells() || a.n_binned() != b.n_binned()) return false;
  for (int c = 0; c < a.n_cells(); ++c) {
    if (a.cell_count(c) != b.cell_count(c)) return false;
    if (!std::equal(a.cell_begin(c), a.cell_end(c), b.cell_begin(c))) return false;
  }
  return true;
}

bool offsets_identical(const md::NeighborList& a, const md::NeighborList& b) {
  if (a.n_atoms() != b.n_atoms() || a.total_entries() != b.total_entries()) return false;
  for (int i = 0; i < a.n_atoms(); ++i) {
    if (a.entry_index(i, 0) != b.entry_index(i, 0)) return false;
  }
  return true;
}

// Deterministic irregular row counts (the prefix scan is agnostic to where
// counts come from; this stands in for the count pass without the O(n * 27)
// cell sweep).
void fake_counts(md::NeighborList& nl, int n) {
  for (int i = 0; i < n; ++i) nl.set_count(i, static_cast<int>((i * 7 + 3) % 61));
}

struct PhaseTimings {
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const int max_atoms = argc > 1 ? std::atoi(argv[1]) : 1000000;
  const int engine_steps = argc > 2 ? std::atoi(argv[2]) : 3;
  const int threads = argc > 3 ? std::max(1, std::atoi(argv[3])) : 4;
  const int context_steps = argc > 4 ? std::atoi(argv[4]) : 0;

  bench::JsonEmitter json("scaling");
  json.set_provider("native");
  // Parallel wall-clock gains require real cores; on a 1-CPU host the sweep
  // still proves byte-identity (the point CI gates on) while serial-vs-
  // parallel timings read as overhead-only.  Record the budget so the
  // numbers are interpretable either way.
  json.metric("env", "hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));
  json.metric("env", "pool_threads", threads);
  bool all_ok = true;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) std::cerr << "VERIFY FAILED: " << what << "\n";
    all_ok = all_ok && ok;
    return ok;
  };

  parallel::FixedThreadPool pool({.n_threads = threads});
  std::vector<int> thread_list{1, 2, 4, threads};

  std::vector<int> sizes;
  for (int n : {10000, 100000, 1000000}) {
    if (n <= max_atoms) sizes.push_back(n);
  }
  if (sizes.empty()) sizes.push_back(max_atoms);

  std::cout << "Workload-axis scaling (bulk fcc argon), serial vs parallel rebuild\n"
            << "pool: " << threads << " threads\n\n";
  Table table({"Atoms", "bin ser/par ms", "prefix ser/par ms", "sort ser/par ms",
               "scene ser/par ms", "identical?"});

  for (int n : sizes) {
    md::MolecularSystem sys = workloads::make_bulk_crystal(n, 120.0, 42);
    std::string size_tag = "n";
    size_tag += std::to_string(n);
    const double reach = 8.9;  // engine default cutoff + skin
    bool size_ok = true;

    // --- Cell binning ------------------------------------------------------
    md::CellGrid ref_grid(sys.box().lo, sys.box().hi, reach);
    double t0 = now_ms();
    ref_grid.bin(sys.positions());
    PhaseTimings bin_t;
    bin_t.serial_ms = now_ms() - t0;
    md::CellGrid par_grid(sys.box().lo, sys.box().hi, reach);
    for (int t : thread_list) {
      t0 = now_ms();
      par_grid.bin(sys.positions(), &pool, t);
      const double ms = now_ms() - t0;
      if (t == threads) bin_t.parallel_ms = ms;
      size_ok &= check(grids_identical(ref_grid, par_grid),
                       size_tag + " bin @" + std::to_string(t) + " chunks");
    }

    // --- CSR prefix scan ---------------------------------------------------
    md::NeighborList ref_nl(n, 8.0, 0.9), par_nl(n, 8.0, 0.9);
    ref_nl.begin_rebuild(sys.positions());
    fake_counts(ref_nl, n);
    t0 = now_ms();
    ref_nl.finalize_offsets();
    PhaseTimings prefix_t;
    prefix_t.serial_ms = now_ms() - t0;
    for (int t : thread_list) {
      par_nl.begin_rebuild(sys.positions());
      fake_counts(par_nl, n);
      t0 = now_ms();
      par_nl.finalize_offsets(&pool, t);
      const double ms = now_ms() - t0;
      if (t == threads) prefix_t.parallel_ms = ms;
      size_ok &= check(offsets_identical(ref_nl, par_nl),
                       size_tag + " prefix @" + std::to_string(t) + " chunks");
    }

    // --- Morton radix sort -------------------------------------------------
    t0 = now_ms();
    const std::vector<int> ref_order =
        md::morton_order(sys.positions(), sys.box().lo, sys.box().hi, reach);
    PhaseTimings sort_t;
    sort_t.serial_ms = now_ms() - t0;
    for (int t : thread_list) {
      t0 = now_ms();
      const std::vector<int> par_order =
          md::morton_order(sys.positions(), sys.box().lo, sys.box().hi, reach, &pool, t);
      const double ms = now_ms() - t0;
      if (t == threads) sort_t.parallel_ms = ms;
      size_ok &= check(par_order == ref_order,
                       size_tag + " morton @" + std::to_string(t) + " chunks");
    }

    // --- Scene serialization ----------------------------------------------
    t0 = now_ms();
    const std::string ref_text = serve::scene_text(sys);
    PhaseTimings scene_t;
    scene_t.serial_ms = now_ms() - t0;
    const std::uint64_t ref_hash = serve::SceneCache::content_hash(ref_text);
    for (int t : thread_list) {
      t0 = now_ms();
      const std::string par_text = serve::scene_text(sys, &pool, t);
      const double ms = now_ms() - t0;
      if (t == threads) scene_t.parallel_ms = ms;
      size_ok &= check(par_text == ref_text &&
                           serve::SceneCache::content_hash(par_text) == ref_hash,
                       size_tag + " scene @" + std::to_string(t) + " chunks");
    }

    const std::string rg = "rebuild." + size_tag;
    json.metric(rg, "bin_serial_ms", bin_t.serial_ms);
    json.metric(rg, "bin_parallel_ms", bin_t.parallel_ms);
    json.metric(rg, "prefix_serial_ms", prefix_t.serial_ms);
    json.metric(rg, "prefix_parallel_ms", prefix_t.parallel_ms);
    json.metric(rg, "sort_serial_ms", sort_t.serial_ms);
    json.metric(rg, "sort_parallel_ms", sort_t.parallel_ms);
    json.metric(rg, "scene_serial_ms", scene_t.serial_ms);
    json.metric(rg, "scene_parallel_ms", scene_t.parallel_ms);
    json.metric(rg, "scene_bytes", static_cast<double>(ref_text.size()));
    // Modelled-vs-measured anchor for the cost table's scene_format_atom
    // (there is no run_simulated site for serialization — it happens outside
    // the step loop — so the calibration lives here).
    json.metric(rg, "scene_serial_ns_per_atom", scene_t.serial_ms * 1e6 / n);

    auto spair = [](const PhaseTimings& t) {
      std::ostringstream os;
      os << Table::fixed(t.serial_ms, 1) << " / " << Table::fixed(t.parallel_ms, 1);
      return os.str();
    };
    table.row(n, spair(bin_t), spair(prefix_t), spair(sort_t), spair(scene_t),
              size_ok ? "yes" : "NO");
    json.metric("verify", size_tag + "_phases_identical", size_ok ? 1 : 0);

    // --- Engine ablation: parallel_rebuild off vs on -----------------------
    // reorder_interval = 1 puts the Morton sort on every rebuild; the
    // per-step total energies must match bit for bit.
    std::vector<double> energies[2];
    double wall[2] = {0.0, 0.0};
    for (int mode = 0; mode < 2; ++mode) {
      md::MolecularSystem esys = workloads::make_bulk_crystal(n, 120.0, 42);
      md::EngineConfig cfg;
      cfg.n_threads = threads;
      cfg.reorder_interval = 1;
      cfg.parallel_rebuild = mode == 1;
      md::Engine engine(std::move(esys), cfg);
      const double w0 = now_ms();
      for (int s = 0; s < engine_steps; ++s) {
        engine.run_native(pool, 1);
        energies[mode].push_back(engine.total_energy());
      }
      wall[mode] = now_ms() - w0;
    }
    const bool energy_ok =
        std::memcmp(energies[0].data(), energies[1].data(),
                    energies[0].size() * sizeof(double)) == 0;
    check(energy_ok, size_tag + " engine ablation energy bit-equality");
    const std::string eg = "engine." + size_tag;
    json.metric(eg, "steps", engine_steps);
    json.metric(eg, "threads", threads);
    json.metric(eg, "serial_rebuild_ms", wall[0]);
    json.metric(eg, "parallel_rebuild_ms", wall[1]);
    json.metric("verify", size_tag + "_engine_energy_identical", energy_ok ? 1 : 0);
  }
  table.print(std::cout);

  // --- Droplet stress case: irregular cell occupancy -----------------------
  {
    const int n = std::min(100000, max_atoms);
    md::MolecularSystem sys = workloads::make_droplet(std::max(n, 1000), 110.0, 99);
    const double reach = 8.9;
    md::CellGrid ref_grid(sys.box().lo, sys.box().hi, reach);
    ref_grid.bin(sys.positions());
    md::CellGrid par_grid(sys.box().lo, sys.box().hi, reach);
    bool ok = true;
    for (int t : thread_list) {
      par_grid.bin(sys.positions(), &pool, t);
      ok &= grids_identical(ref_grid, par_grid);
    }
    const std::vector<int> ref_order =
        md::morton_order(sys.positions(), sys.box().lo, sys.box().hi, reach);
    for (int t : thread_list) {
      ok &= md::morton_order(sys.positions(), sys.box().lo, sys.box().hi, reach, &pool,
                             t) == ref_order;
    }
    check(ok, "droplet irregular-occupancy bin/morton identity");
    json.metric("verify", "droplet_phases_identical", ok ? 1 : 0);
    std::cout << "\ndroplet (" << sys.n_atoms()
              << " atoms, dense core + sparse vapor): " << (ok ? "identical" : "DIVERGED")
              << "\n";
  }

  // --- Optional: the original simulated refresh-rate context table ---------
  if (context_steps > 0) {
    std::cout << "\nAtom-count context on the simulated quad-core (paper Section I):\n";
    Table ctx({"Atoms", "Updates/s (serial)", "Updates/s (4 threads)"});
    for (int n : {250, 500, 1000, 2000, 4000}) {
      double ups[2] = {0, 0};
      int idx = 0;
      for (int t : {1, 4}) {
        auto sys = workloads::make_lj_gas(n, 0.055, 300.0, 5);
        md::EngineConfig cfg;
        cfg.n_threads = t;
        cfg.dt_fs = 1.0;
        cfg.cutoff = 7.5;
        cfg.skin = 0.8;
        md::Engine engine(std::move(sys), cfg);
        sim::MachineConfig mc;
        mc.spec = topo::core_i7_920();
        mc.n_threads = t;
        sim::Machine machine(mc);
        engine.run_simulated(machine, 5);
        const double t0s = machine.now_seconds();
        engine.run_simulated(machine, context_steps);
        ups[idx++] = context_steps / (machine.now_seconds() - t0s);
      }
      ctx.row(n, Table::fixed(ups[0], 1), Table::fixed(ups[1], 1));
    }
    ctx.print(std::cout);
  }

  json.metric("verify", "all_identical", all_ok ? 1 : 0);
  const std::string path = json.write();
  std::cout << "\nwrote " << path << (all_ok ? "" : "  (WITH FAILURES)") << "\n";
  return all_ok ? 0 : 1;
}
