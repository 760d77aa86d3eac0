#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "common/args.hpp"
#include "md/engine.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

void expect_systems_equal(const MolecularSystem& a, const MolecularSystem& b) {
  ASSERT_EQ(a.n_atoms(), b.n_atoms());
  ASSERT_EQ(a.types().n(), b.types().n());
  for (int t = 0; t < a.types().n(); ++t) {
    EXPECT_EQ(a.types().at(t).name, b.types().at(t).name);
    EXPECT_EQ(a.types().at(t).mass, b.types().at(t).mass);
    EXPECT_EQ(a.types().at(t).lj_epsilon, b.types().at(t).lj_epsilon);
    EXPECT_EQ(a.types().at(t).lj_sigma, b.types().at(t).lj_sigma);
  }
  EXPECT_EQ(a.box().lo, b.box().lo);
  EXPECT_EQ(a.box().hi, b.box().hi);
  for (int i = 0; i < a.n_atoms(); ++i) {
    EXPECT_EQ(a.positions()[static_cast<std::size_t>(i)],
              b.positions()[static_cast<std::size_t>(i)]);
    EXPECT_EQ(a.velocities()[static_cast<std::size_t>(i)],
              b.velocities()[static_cast<std::size_t>(i)]);
    EXPECT_EQ(a.charge(i), b.charge(i));
    EXPECT_EQ(a.type_of(i), b.type_of(i));
    EXPECT_EQ(a.movable(i), b.movable(i));
  }
  ASSERT_EQ(a.radial_bonds().size(), b.radial_bonds().size());
  ASSERT_EQ(a.angular_bonds().size(), b.angular_bonds().size());
  ASSERT_EQ(a.torsion_bonds().size(), b.torsion_bonds().size());
  for (std::size_t k = 0; k < a.radial_bonds().size(); ++k) {
    EXPECT_EQ(a.radial_bonds()[k].a, b.radial_bonds()[k].a);
    EXPECT_EQ(a.radial_bonds()[k].b, b.radial_bonds()[k].b);
    EXPECT_EQ(a.radial_bonds()[k].k, b.radial_bonds()[k].k);
    EXPECT_EQ(a.radial_bonds()[k].r0, b.radial_bonds()[k].r0);
  }
}

class SceneRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SceneRoundTrip, ExactForAllBenchmarks) {
  const auto spec = workloads::make_benchmark(GetParam(), 13);
  std::stringstream ss;
  save_scene(ss, spec.system);
  const MolecularSystem loaded = load_scene(ss);
  expect_systems_equal(spec.system, loaded);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SceneRoundTrip,
                         ::testing::Values("nanocar", "salt", "Al-1000"));

TEST(SceneIoTest, RoundTripPreservesDynamics) {
  // Loading a saved scene must produce bit-identical trajectories.
  auto spec = workloads::make_benchmark("salt", 5);
  std::stringstream ss;
  save_scene(ss, spec.system);
  MolecularSystem loaded = load_scene(ss);

  auto cfg = spec.engine;
  cfg.n_threads = 1;
  cfg.temporaries = TemporariesMode::InPlace;
  Engine a(std::move(spec.system), cfg);
  Engine b(std::move(loaded), cfg);
  a.run_inline(10);
  b.run_inline(10);
  EXPECT_EQ(a.total_energy(), b.total_energy());
  for (int i = 0; i < a.system().n_atoms(); ++i) {
    EXPECT_EQ(a.system().positions()[static_cast<std::size_t>(i)],
              b.system().positions()[static_cast<std::size_t>(i)]);
  }
}

TEST(SceneIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream ss;
  ss << "# a scene\nmws 1\n\nbox 0 0 0 10 10 10\ntype Ar 39.95 0.0001 3.4\n"
     << "# the atom:\natom 0 5 5 5 0 0 0 0 1\n";
  const MolecularSystem sys = load_scene(ss);
  EXPECT_EQ(sys.n_atoms(), 1);
  EXPECT_EQ(sys.types().at(0).name, "Ar");
}

TEST(SceneIoTest, MalformedInputsRejectedWithLineNumbers) {
  auto expect_fail = [](const std::string& text, const std::string& needle) {
    std::stringstream ss(text);
    try {
      load_scene(ss);
      FAIL() << "expected failure for: " << text;
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_fail("box 0 0 0 10 10 10\n", "missing 'mws 1' header");
  expect_fail("mws 3\n", "unsupported scene version");
  expect_fail("mws 0\n", "unsupported scene version");
  expect_fail("mws 1\nbox 0 0 0 9 9 9\ntype A 1 0 1\natom 0 1 1 1 0 0 0 0 1\nacc 0 0 0\n",
              "version-1 scene");
  expect_fail("mws 1\nbox 0 0 0 9 9 9\ntype A 1 0 1\natom 0 1 1 1 0 0 0 0 1\nnref 1 1 1\n",
              "version-1 scene");
  expect_fail(
      "mws 2\nbox 0 0 0 9 9 9\ntype A 1 0 1\natom 0 1 1 1 0 0 0 0 1\nacc 0 0 0\nacc 0 0 0\n",
      "more acc records than atoms");
  expect_fail("mws 1\nfrobnicate 3\n", "unknown record");
  expect_fail("mws 1\nbox 0 0 0\n", "malformed box");
  expect_fail("mws 1\natom 0 1 1 1 0 0 0 0 1\n", "atom before box");
  expect_fail("mws 1\nbox 0 0 0 10 10 10\natom 0 1 1 1 0 0 0 0 1\n", "atom before any type");
  expect_fail("mws 1\nbox 0 0 0 10 10 10\ntype A 1 0 1\natom 7 1 1 1 0 0 0 0 1\n",
              "unknown atom type");
  expect_fail("mws 1\nbox 0 0 0 5 5 5\ntype A 1 0 1\n", "no atoms");
  // Records must hold exactly their fields, ints must be integers: these
  // once loaded with silently shifted or truncated fields.
  expect_fail("mws 1\nbox 0 0 0 9 9 9\ntype A 1 0 1\natom 0.5 1 1 1 0 0 0 0 1\n",
              "scene line 4: malformed atom: non-integer field");
  expect_fail("mws 1\nbox 0 0 0 9 9 9\ntype A 1 0 1\natom 0 1 1 1 0 0 0 0 1 junk\n",
              "scene line 4: malformed atom: extra tokens after the last field");
  expect_fail("mws 1\nbox 0 0 0 9 9 9\ntype A 1 0 1\natom 0 1 1 1 0 0 0 0 1.5\n",
              "scene line 4: malformed atom: non-integer field");
  expect_fail("mws 1\nbox 0 0 0 9 9 9\ntype A 1 0 1\natom 0 1 1 1 0 0 0 0 1junk\n",
              "scene line 4: malformed atom: non-integer field");
  expect_fail("mws 1\nbox 0 0 0 9 9 9 9\n", "malformed box: extra tokens");
  expect_fail("mws 1\nbox 0 0 0 9 9 1e999\n", "malformed box: number out of range");
  expect_fail("mws 1\nbox 0 0 0 9 9 1e-400\n", "malformed box: number out of range");
  expect_fail("mws 1\nbox 0 0 0 9 9 nan\n", "malformed box: non-finite number");
  expect_fail("mws 1\nbox 0 0 0 9 9 inf\n", "malformed box: non-finite number");
  expect_fail("mws 1\n \n", "unknown record ''");
}

TEST(SceneIoTest, CheckpointRoundTripCarriesAccAndRefs) {
  auto spec = workloads::make_benchmark("salt", 5);
  auto cfg = spec.engine;
  cfg.n_threads = 1;
  Engine engine(spec.system, cfg);
  engine.run_inline(9);

  std::stringstream ss;
  save_checkpoint_scene(ss, engine.system(), engine.neighbor_list().reference_positions());
  std::vector<Vec3> refs;
  const MolecularSystem loaded = load_scene(ss, &refs);
  expect_systems_equal(engine.system(), loaded);

  const MolecularSystem& orig = engine.system();
  ASSERT_EQ(static_cast<int>(refs.size()), orig.n_atoms());
  for (int ext = 0; ext < orig.n_atoms(); ++ext) {
    const auto i = static_cast<std::size_t>(orig.index_of_external(ext));
    // load_scene assigns external ID == index, so the loaded arrays are in
    // external order.
    EXPECT_EQ(orig.accelerations()[i], loaded.accelerations()[static_cast<std::size_t>(ext)]);
    EXPECT_EQ(engine.neighbor_list().reference_positions()[i],
              refs[static_cast<std::size_t>(ext)]);
  }
}

TEST(SceneIoTest, CheckpointLoadsAsPlainScene) {
  // A v2 checkpoint consumed without an nref receiver is a valid ordinary
  // starting scene (accelerations applied, snapshot dropped).
  auto spec = workloads::make_benchmark("nanocar", 3);
  auto cfg = spec.engine;
  cfg.n_threads = 1;
  Engine engine(spec.system, cfg);
  engine.run_inline(4);
  std::stringstream ss;
  save_checkpoint_scene(ss, engine.system(), engine.neighbor_list().reference_positions());
  const MolecularSystem loaded = load_scene(ss);
  expect_systems_equal(engine.system(), loaded);
}

TEST(SceneIoTest, CheckpointRefCountMismatchRejected) {
  auto spec = workloads::make_benchmark("nanocar", 3);
  Engine engine(spec.system, {.n_threads = 1});
  engine.compute_forces_only();
  std::vector<Vec3> short_refs(static_cast<std::size_t>(spec.system.n_atoms()) - 1);
  std::stringstream ss;
  EXPECT_THROW(save_checkpoint_scene(ss, engine.system(), short_refs), ContractError);
}

// The tentpole correctness discipline: run `split` steps, checkpoint through
// the v2 text form, restore into a fresh engine, run the remainder — final
// energies and positions must be bitwise identical to the uninterrupted run.
void expect_restore_bit_exact(const MolecularSystem& sys, EngineConfig cfg, int total,
                              int split) {
  parallel::FixedThreadPool pool({.n_threads = cfg.n_threads});

  Engine uninterrupted(sys, cfg);
  uninterrupted.run_native(pool, total);

  Engine first(sys, cfg);
  first.run_native(pool, split);
  std::stringstream ss;
  save_checkpoint_scene(ss, first.system(), first.neighbor_list().reference_positions());

  std::vector<Vec3> refs;
  MolecularSystem loaded = load_scene(ss, &refs);
  Engine second(std::move(loaded), cfg);
  second.restore_continuation(refs);
  second.run_native(pool, total - split);

  EXPECT_EQ(uninterrupted.potential_energy(), second.potential_energy());
  EXPECT_EQ(uninterrupted.kinetic_energy(), second.kinetic_energy());
  const MolecularSystem& a = uninterrupted.system();
  const MolecularSystem& b = second.system();
  for (int ext = 0; ext < a.n_atoms(); ++ext) {
    EXPECT_EQ(a.positions()[static_cast<std::size_t>(a.index_of_external(ext))],
              b.positions()[static_cast<std::size_t>(b.index_of_external(ext))]);
  }
  pool.shutdown();
}

TEST(SceneIoTest, RestoreContinuationBitExactGas) {
  const auto sys = workloads::make_lj_gas(256, 0.006, 300.0, 91);
  for (int split : {1, 13, 41}) {
    expect_restore_bit_exact(sys, {.n_threads = 2}, 60, split);
  }
}

TEST(SceneIoTest, RestoreContinuationBitExactSaltMidRebuildWindow) {
  // Regression anchor: split=11 on salt with 3 decomposition slots lands the
  // checkpoint mid-way through a neighbor-list validity window.  Restoring
  // without the reference snapshot (rebuilding the list from *current*
  // positions) reorders force accumulation and diverges here — the nref
  // records are load-bearing, not belt-and-braces.
  auto spec = workloads::make_benchmark("salt", 7);
  auto cfg = spec.engine;
  cfg.n_threads = 3;
  expect_restore_bit_exact(spec.system, cfg, 40, 11);
}

TEST(SceneIoTest, RestoreContinuationBitExactAcrossWorkloads) {
  {
    auto spec = workloads::make_benchmark("nanocar", 3);
    auto cfg = spec.engine;
    cfg.n_threads = 2;
    expect_restore_bit_exact(spec.system, cfg, 30, 9);
  }
  {
    auto spec = workloads::make_benchmark("Al-1000", 4);
    auto cfg = spec.engine;
    cfg.n_threads = 4;
    expect_restore_bit_exact(spec.system, cfg, 24, 7);
  }
}

// Resumes from "mws 2" text every `every` steps: each segment runs on a
// fresh engine restored from the previous segment's checkpoint.  After every
// segment its energies must equal those of an engine that was never
// restored, and at the end energies and positions must equal one run_native
// call over all `total` steps, bit for bit.
void expect_repeated_restores_bit_exact(const MolecularSystem& sys, const EngineConfig& cfg,
                                        int total, int every) {
  parallel::FixedThreadPool pool({.n_threads = cfg.n_threads});
  Engine whole(sys, cfg);
  whole.run_native(pool, total);

  Engine kept(sys, cfg);
  auto resumed = std::make_unique<Engine>(sys, cfg);
  for (int done = 0; done < total;) {
    if (done > 0) {
      const std::string text = format_checkpoint(resumed->system(),
                                                 resumed->neighbor_list().reference_positions());
      std::vector<Vec3> refs;
      resumed = std::make_unique<Engine>(load_scene(std::string_view(text), &refs), cfg);
      resumed->restore_continuation(refs);
    }
    const int n = std::min(every, total - done);
    resumed->run_native(pool, n);
    kept.run_native(pool, n);
    done += n;
    ASSERT_EQ(resumed->potential_energy(), kept.potential_energy()) << "after step " << done;
    ASSERT_EQ(resumed->kinetic_energy(), kept.kinetic_energy()) << "after step " << done;
  }

  EXPECT_EQ(whole.potential_energy(), resumed->potential_energy());
  EXPECT_EQ(whole.kinetic_energy(), resumed->kinetic_energy());
  const MolecularSystem& a = whole.system();
  const MolecularSystem& b = resumed->system();
  for (int ext = 0; ext < a.n_atoms(); ++ext) {
    ASSERT_EQ(a.positions()[static_cast<std::size_t>(a.index_of_external(ext))],
              b.positions()[static_cast<std::size_t>(b.index_of_external(ext))])
        << "atom " << ext;
  }
  pool.shutdown();
}

TEST(SceneIoCheckpoint, RepeatedRestoresMatchUninterruptedRun) {
  // Salt (every atom charged), nanocar (bonded) and Al-1000 (a rebuild
  // every few steps), 14 restores over 105 steps, under a static and a
  // dynamic discipline.
  for (const char* name : {"salt", "nanocar", "Al-1000"}) {
    for (const sim::Assignment assignment :
         {sim::Assignment::Static, sim::Assignment::WorkStealing}) {
      SCOPED_TRACE(std::string(name) + (assignment == sim::Assignment::Static ? " static"
                                                                               : " stealing"));
      auto spec = workloads::make_benchmark(name, 5);
      auto cfg = spec.engine;
      cfg.n_threads = 3;
      cfg.assignment = assignment;
      expect_repeated_restores_bit_exact(spec.system, cfg, 105, 7);
    }
  }
}

TEST(SceneIoCheckpoint, RepeatedRestoresMatchUninterruptedRunChargedGas2048) {
  // The 2048-atom LJ+Coulomb gas (a quarter charged) of bench/e2e's
  // serve_mix bulk jobs, at their width and time step.
  EngineConfig cfg{.n_threads = 4};
  cfg.dt_fs = 1.0;
  expect_repeated_restores_bit_exact(workloads::make_lj_coulomb_gas(2048, 0.008, 300.0, 0.25, 3),
                                     cfg, 105, 7);
}

TEST(SceneIoTest, RestoreContinuationGuards) {
  const auto sys = workloads::make_lj_gas(64, 0.004, 200.0, 7);
  std::vector<Vec3> refs(static_cast<std::size_t>(sys.n_atoms()));
  {
    Engine engine(sys, {.n_threads = 1});
    engine.run_inline(1);  // list already built: too late to restore
    EXPECT_THROW(engine.restore_continuation(refs), ContractError);
  }
  {
    Engine engine(sys, {.n_threads = 1});
    std::vector<Vec3> wrong(refs.size() - 1);
    EXPECT_THROW(engine.restore_continuation(wrong), ContractError);
  }
  {
    EngineConfig cfg{.n_threads = 1};
    cfg.reorder_interval = 4;  // Morton pass cannot be replayed from a checkpoint
    Engine engine(sys, cfg);
    EXPECT_THROW(engine.restore_continuation(refs), ContractError);
  }
}

TEST(SceneIoTest, FileRoundTrip) {
  const auto spec = workloads::make_benchmark("nanocar", 3);
  const std::string path = "/tmp/mwx_scene_test.mws";
  save_scene_file(path, spec.system);
  const MolecularSystem loaded = load_scene_file(path);
  expect_systems_equal(spec.system, loaded);
  EXPECT_THROW(load_scene_file("/nonexistent/nope.mws"), ContractError);
}

}  // namespace
}  // namespace mwx::md

namespace mwx {
namespace {

TEST(ArgsTest, ParsesAllForms) {
  // Note: a bare --flag greedily consumes a following non-flag token as its
  // value, so positionals must not directly follow boolean flags.
  const char* argv[] = {"prog",        "--steps=50", "positional", "--threads",
                        "4",           "--ratio=0.5", "--flag"};
  Args args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("steps", 0), 50);
  EXPECT_EQ(args.get_int("threads", 0), 4);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 9), 9);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(ArgsTest, BadNumbersThrow) {
  const char* argv[] = {"prog", "--steps=abc"};
  Args args(2, const_cast<char**>(argv));
  EXPECT_THROW((void)args.get_int("steps", 0), ContractError);
  EXPECT_THROW((void)args.get_double("steps", 0), ContractError);
}

}  // namespace
}  // namespace mwx
