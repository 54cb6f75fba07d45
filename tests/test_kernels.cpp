// Kernel-level integration tests: every benchmark kernel computes the right
// answer under every system, reports no races when race-free, and every
// seeded-race variant is caught.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common.hpp"
#include "kernels/kernels.hpp"
#include "runtime/scheduler.hpp"

using namespace pint;
using test::Det;

namespace {
constexpr double kTestScale = 0.12;  // small but past all base cases
}

class KernelBaseline : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelBaseline, ComputesCorrectResultSerial) {
  kernels::KernelConfig cfg;
  cfg.scale = kTestScale;
  auto k = kernels::make_kernel(GetParam(), cfg);
  k->prepare();
  rt::Scheduler::Options o;
  o.workers = 1;
  rt::Scheduler s(o);
  s.run([&] { k->run(); });
  EXPECT_TRUE(k->verify()) << k->config_string();
}

TEST_P(KernelBaseline, ComputesCorrectResultParallel) {
  kernels::KernelConfig cfg;
  cfg.scale = kTestScale;
  auto k = kernels::make_kernel(GetParam(), cfg);
  k->prepare();
  rt::Scheduler::Options o;
  o.workers = 4;
  rt::Scheduler s(o);
  s.run([&] { k->run(); });
  EXPECT_TRUE(k->verify()) << k->config_string();
}

TEST_P(KernelBaseline, RepeatedPrepareRunIsDeterministic) {
  kernels::KernelConfig cfg;
  cfg.scale = kTestScale;
  auto k = kernels::make_kernel(GetParam(), cfg);
  for (int rep = 0; rep < 2; ++rep) {
    k->prepare();
    rt::Scheduler::Options o;
    o.workers = 2;
    rt::Scheduler s(o);
    s.run([&] { k->run(); });
    EXPECT_TRUE(k->verify()) << "rep=" << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(All, KernelBaseline,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// kernel x detector matrix
// ---------------------------------------------------------------------------

using KD = std::tuple<std::string, Det>;

class KernelUnderDetector : public ::testing::TestWithParam<KD> {};

TEST_P(KernelUnderDetector, RaceFreeAndCorrect) {
  const auto& [name, det] = GetParam();
  kernels::KernelConfig cfg;
  cfg.scale = kTestScale;
  auto k = kernels::make_kernel(name, cfg);
  k->prepare();
  auto r = test::run_under(det, [&] { k->run(); });
  EXPECT_FALSE(r.any_race) << "false positive";
  EXPECT_TRUE(k->verify());
}

TEST_P(KernelUnderDetector, SeededRaceIsDetected) {
  const auto& [name, det] = GetParam();
  kernels::KernelConfig cfg;
  cfg.scale = kTestScale;
  cfg.seeded_race = true;
  auto k = kernels::make_kernel(name, cfg);
  k->prepare();
  auto r = test::run_under(det, [&] { k->run(); });
  EXPECT_TRUE(r.any_race) << "missed the seeded race";
}

namespace {
std::vector<KD> kernel_detector_matrix() {
  std::vector<KD> out;
  for (const auto& k : kernels::kernel_names()) {
    for (Det d : {Det::kStint, Det::kPintSeq, Det::kPint2, Det::kPint4,
                  Det::kCracer1, Det::kCracer4}) {
      out.push_back({k, d});
    }
  }
  return out;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Matrix, KernelUnderDetector,
                         ::testing::ValuesIn(kernel_detector_matrix()),
                         [](const auto& info) {
                           return std::get<0>(info.param) + "_" +
                                  test::det_name(std::get<1>(info.param));
                         });

// ---------------------------------------------------------------------------
// Counter folds: each detector tallies per thread and folds at run end
// ---------------------------------------------------------------------------

class KernelCounterFold : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelCounterFold, EveryDetectorCountsTheSameAccesses) {
  kernels::KernelConfig cfg;
  cfg.scale = kTestScale;
  auto k = kernels::make_kernel(GetParam(), cfg);
  detect::Counts ref;
  for (Det d : {Det::kStint, Det::kPintSeq, Det::kPint2, Det::kPintShard3,
                Det::kCracer4}) {
    k->prepare();
    const detect::Counts s = test::run_under(d, [&] { k->run(); }).stats;
    if (d == Det::kStint) {
      ref = s;
      ASSERT_GT(ref.raw_reads + ref.raw_writes, 0u);
    }
    EXPECT_EQ(s.raw_reads, ref.raw_reads) << test::det_name(d);
    EXPECT_EQ(s.raw_writes, ref.raw_writes) << test::det_name(d);
    // C-RACER has no AccessCursor and counts neither route.
    if (d != Det::kCracer4) {
      EXPECT_EQ(s.fastpath_accesses + s.slowpath_accesses,
                s.raw_reads + s.raw_writes)
          << test::det_name(d);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, KernelCounterFold,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });
