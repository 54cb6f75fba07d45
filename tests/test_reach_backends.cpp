// Detector-level certification of the happens-before oracle (DESIGN.md
// §14; ctest label `reachmatrix`).  The engine surface itself is tested in
// test_reach.cpp; here the full kernel x detector x history-mode sweep, the
// seeded-race kernels, random programs against the oracle detector and the
// lock-kernel twins run end to end on DePa labels.  Every configuration is
// deterministic (one core worker; history modes only change who processes
// the work, never strand identity).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "kernels/kernels.hpp"

using namespace pint;

// ---------------------------------------------------------------------------
// Detector matrix.
// ---------------------------------------------------------------------------

namespace {

struct MatrixRun {
  bool any_race = false;
  std::uint64_t distinct = 0;
};

// Deterministic detector configurations: exactly one core worker, so strand
// identity (sids) is schedule-independent.  The history modes - STINT
// inline, PINT phased, PINT pipelined, PINT sharded, C-RACER, oracle - only
// move WHERE conflict checks run, never which strands exist.
enum class Mode { kStint, kPhased, kPipelined, kSharded, kCracer, kOracle };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kStint: return "stint";
    case Mode::kPhased: return "pint_phased";
    case Mode::kPipelined: return "pint_pipelined";
    case Mode::kSharded: return "pint_sharded";
    case Mode::kCracer: return "cracer";
    case Mode::kOracle: return "oracle";
  }
  return "?";
}

const std::vector<Mode>& all_modes() {
  static const std::vector<Mode> v = {Mode::kStint,   Mode::kPhased,
                                      Mode::kPipelined, Mode::kSharded,
                                      Mode::kCracer,  Mode::kOracle};
  return v;
}

MatrixRun run_mode(Mode m, const std::function<void()>& body) {
  MatrixRun out;
  switch (m) {
    case Mode::kStint: {
      stint::StintDetector det(stint::StintDetector::Options{});
      det.run(body);
      out = {det.reporter().any(), det.reporter().distinct_races()};
      break;
    }
    case Mode::kPhased:
    case Mode::kPipelined:
    case Mode::kSharded: {
      pintd::PintDetector::Options o;
      o.core_workers = 1;
      o.parallel_history = m != Mode::kPhased;
      if (m == Mode::kSharded) o.history_shards = 3;
      pintd::PintDetector det(o);
      det.run(body);
      out = {det.reporter().any(), det.reporter().distinct_races()};
      break;
    }
    case Mode::kCracer: {
      cracer::CracerDetector::Options o;
      o.workers = 1;
      cracer::CracerDetector det(o);
      det.run(body);
      out = {det.reporter().any(), det.reporter().distinct_races()};
      break;
    }
    case Mode::kOracle: {
      oracle::OracleDetector det;
      det.run(body);
      out.any_race = det.any_race();
      out.distinct = det.any_race() ? 1 : 0;
      break;
    }
  }
  return out;
}

}  // namespace

// All 7 kernels x every detector/history mode: race-free inputs must report
// ZERO races (false positives are what a broken relation would produce
// first), and verify() must hold.
class ReachMatrixKernels
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

TEST_P(ReachMatrixKernels, RaceFreeKernelStaysSilent) {
  const auto& [kernel, mode] = GetParam();
  kernels::KernelConfig cfg;
  cfg.scale = 0.12;
  auto k = kernels::make_kernel(kernel, cfg);
  k->prepare();
  const MatrixRun r = run_mode(mode, [&] { k->run(); });
  EXPECT_TRUE(k->verify()) << kernel << " under " << mode_name(mode);
  EXPECT_FALSE(r.any_race) << kernel << " false race under "
                           << mode_name(mode);
  EXPECT_EQ(r.distinct, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllModes, ReachMatrixKernels,
    ::testing::Combine(::testing::ValuesIn(kernels::kernel_names()),
                       ::testing::ValuesIn(all_modes())),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             mode_name(std::get<1>(info.param));
    });

// Seeded-race kernel variants: every mode must catch the race.
class ReachMatrixSeeded : public ::testing::TestWithParam<Mode> {};

TEST_P(ReachMatrixSeeded, SeededRacesCaught) {
  const Mode mode = GetParam();
  for (const char* kernel : {"mmul", "heat", "sort"}) {
    kernels::KernelConfig cfg;
    cfg.scale = 0.12;
    cfg.seeded_race = true;
    auto k = kernels::make_kernel(kernel, cfg);
    k->prepare();
    const MatrixRun r = run_mode(mode, [&] { k->run(); });
    EXPECT_TRUE(r.any_race) << kernel << " seeded race missed under "
                            << mode_name(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReachMatrixSeeded,
                         ::testing::ValuesIn(all_modes()),
                         [](const auto& info) { return mode_name(info.param); });

// Random-program property fuzz: every detector and history mode must agree
// with the oracle on ANY-race for every generated program.
TEST(ReachMatrixFuzz, RandomProgramsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool race_free : {true, false}) {
      test::ProgramConfig cfg;
      cfg.race_free = race_free;
      test::ProgramGen gen(seed, cfg);
      auto prog = gen.generate();
      const std::size_t pool = test::program_pool_bytes(cfg);
      const bool oracle_race = test::oracle_any_race(*prog, pool);
      if (race_free) {
        EXPECT_FALSE(oracle_race) << "seed=" << seed;
      }
      for (const Mode mode : all_modes()) {
        if (mode == Mode::kOracle) continue;
        std::vector<unsigned char> mem(pool, 0);
        unsigned char* base = mem.data();
        const test::PNode* p = prog.get();
        const MatrixRun r =
            run_mode(mode, [p, base] { test::exec_node(*p, base); });
        EXPECT_EQ(r.any_race, oracle_race)
            << "seed=" << seed << " race_free=" << race_free << " mode="
            << mode_name(mode);
      }
    }
  }
}

// Lock-kernel twins (test_locks.cpp's matrix) re-run in every mode:
// mutex-guarded twins stay silent - equal-label segment splits must remain
// inert under immutable DePa labels - and unguarded twins keep racing.
TEST(ReachMatrixLocks, LockTwinsAgree) {
  for (const char* kernel : {"lktwin", "lkcache"}) {
    for (const bool seeded : {false, true}) {
      for (const Mode mode : all_modes()) {
        if (mode == Mode::kOracle) continue;  // oracle has no lock filter
        kernels::KernelConfig cfg;
        cfg.scale = 0.3;
        cfg.seeded_race = seeded;
        auto k = kernels::make_kernel(kernel, cfg);
        k->prepare();
        const MatrixRun r = run_mode(mode, [&] { k->run(); });
        EXPECT_EQ(r.any_race, seeded)
            << kernel << " seeded=" << seeded << " under " << mode_name(mode);
      }
    }
  }
}
