// Fault-injection suite (label: faults): exercises the named fail points,
// the pipeline watchdog, and the graceful-degradation paths of
// PintDetector::run().  Everything here is deterministic - prob-mode points
// are seeded and counter-keyed - so the suite gives the same verdict run
// after run, in plain, TSan, and ASan builds.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "kernels/kernels.hpp"
#include "support/error_sink.hpp"
#include "support/failpoint.hpp"
#include "support/sanitizer.hpp"
#include "support/watchdog.hpp"

namespace pint::test {
namespace {

using pintd::PintDetector;
using pintd::RunResult;
using pintd::RunStatus;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// 2^depth leaves, every one writing the same byte: racy by construction.
void racy_tree(int depth, unsigned char* base) {
  if (depth == 0) {
    record_write(base, 1);
    return;
  }
  rt::SpawnScope sc;
  sc.spawn([=] { racy_tree(depth - 1, base); });
  sc.spawn([=] { racy_tree(depth - 1, base); });
  sc.sync();
}

// 2^depth leaves, each writing its own 8-byte slot: race-free.
void disjoint_tree(int depth, unsigned char* base, std::uint32_t idx) {
  if (depth == 0) {
    record_write(base + std::size_t(idx) * 8, 4);
    return;
  }
  rt::SpawnScope sc;
  sc.spawn([=] { disjoint_tree(depth - 1, base, idx * 2); });
  sc.spawn([=] { disjoint_tree(depth - 1, base, idx * 2 + 1); });
  sc.sync();
}

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

/// Redirects the shared error sink into a tmpfile for the lifetime of the
/// object; text() returns everything written so far.
struct CaptureErrors {
  std::FILE* f = nullptr;
  CaptureErrors() : f(std::tmpfile()) { set_error_stream(f); }
  ~CaptureErrors() {
    set_error_stream(nullptr);
    if (f != nullptr) std::fclose(f);
  }
  std::string text() const {
    std::fflush(f);
    std::rewind(f);
    std::string s;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) s.append(buf, n);
    return s;
  }
};

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::reset(); }
  void TearDown() override { fail::reset(); }
};

RunResult run_pint(const PintDetector::Options& opt,
                   const std::function<void()>& body, bool* any_race,
                   detect::Stats::Snapshot* stats = nullptr) {
  PintDetector det(opt);
  const RunResult r = det.run(body);
  *any_race = det.reporter().any();
  if (stats != nullptr) *stats = det.stats().snapshot();
  return r;
}

// ---------------------------------------------------------------------------
// Fail-point framework units
// ---------------------------------------------------------------------------

TEST_F(FailPointTest, OnceFiresExactlyOnce) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ASSERT_TRUE(fail::configure("p=once"));
  EXPECT_TRUE(fail::any_configured());
  EXPECT_TRUE(fail::hit("p"));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fail::hit("p"));
  EXPECT_EQ(fail::hit_count("p"), 11u);
  EXPECT_EQ(fail::fire_count("p"), 1u);
}

TEST_F(FailPointTest, EveryNFiresOnMultiples) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ASSERT_TRUE(fail::configure("p=every:3"));
  std::vector<int> fired_at;
  for (int i = 1; i <= 9; ++i) {
    if (fail::hit("p")) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, (std::vector<int>{3, 6, 9}));
}

TEST_F(FailPointTest, ProbIsDeterministicForFixedSeed) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  auto sample = [] {
    std::vector<bool> v;
    for (int i = 0; i < 128; ++i) v.push_back(fail::hit("p"));
    return v;
  };
  ASSERT_TRUE(fail::configure("p=prob:0.5,seed:9"));
  const std::vector<bool> a = sample();
  fail::reset();
  ASSERT_TRUE(fail::configure("p=prob:0.5,seed:9"));
  const std::vector<bool> b = sample();
  EXPECT_EQ(a, b);
  const std::uint64_t fires = fail::fire_count("p");
  EXPECT_GT(fires, 0u);   // p = 0.5 over 128 draws: both bounds hold
  EXPECT_LT(fires, 128u);
}

TEST_F(FailPointTest, ParseErrorsAreReportedAndSkipped) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  EXPECT_FALSE(fail::configure("no-equals-sign"));
  EXPECT_FALSE(fail::configure("p=bogus"));
  EXPECT_FALSE(fail::configure("p=every:0"));
  EXPECT_FALSE(fail::configure("p=prob:1.5"));
  EXPECT_FALSE(fail::configure("=once"));
  // Parsing stops at the first bad clause: earlier clauses stay installed,
  // later ones are never armed.
  EXPECT_FALSE(fail::configure("good=once;bad;late=always"));
  EXPECT_TRUE(fail::hit("good"));
  EXPECT_FALSE(fail::hit("late"));
  EXPECT_EQ(fail::hit_count("late"), 0u);
  // Unknown names are inert.
  EXPECT_FALSE(fail::hit("never-configured"));
  EXPECT_EQ(fail::hit_count("never-configured"), 0u);
}

TEST_F(FailPointTest, DelayOnlySpecFiresEveryHit) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ASSERT_TRUE(fail::configure("p=delay:1"));
  EXPECT_TRUE(fail::hit("p"));
  EXPECT_TRUE(fail::hit("p"));
  EXPECT_EQ(fail::fire_count("p"), 2u);
}

TEST_F(FailPointTest, EnvVariableConfiguresPoints) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ::setenv("PINT_FAILPOINTS", "envpoint=every:2", 1);
  EXPECT_TRUE(fail::configure_from_env());
  ::unsetenv("PINT_FAILPOINTS");
  EXPECT_FALSE(fail::hit("envpoint"));
  EXPECT_TRUE(fail::hit("envpoint"));
}

TEST_F(FailPointTest, MacroIsConstantFalseWhenCompiledOut) {
  if (fail::kCompiledIn) {
    GTEST_SKIP() << "build has fail points compiled in";
  }
  fail::configure("x=always");
  EXPECT_FALSE(PINT_FAILPOINT("x"));
  EXPECT_EQ(fail::hit_count("x"), 0u);  // the site never reached hit()
}

// ---------------------------------------------------------------------------
// Watchdog units
// ---------------------------------------------------------------------------

TEST(WatchdogTest, BusySilentHeartbeatTrips) {
  Heartbeat hb;  // starts busy (idle = false) and never beats
  Watchdog::Options o;
  o.deadline_ms = 30;
  Watchdog wd(o);
  wd.add("stage-x", &hb);
  std::atomic<int> snapshots{0};
  std::atomic<int> stalls{0};
  wd.set_snapshot([&](const char* name) {
    EXPECT_STREQ(name, "stage-x");
    snapshots.fetch_add(1);
  });
  wd.set_on_stall([&](const char*) { stalls.fetch_add(1); });
  wd.arm();
  for (int i = 0; i < 200 && !wd.tripped(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  wd.disarm();
  EXPECT_TRUE(wd.tripped());
  EXPECT_STREQ(wd.tripped_name(), "stage-x");
  EXPECT_EQ(snapshots.load(), 1);
  EXPECT_EQ(stalls.load(), 1);
}

TEST(WatchdogTest, IdleAndBeatingHeartbeatsDoNotTrip) {
  Heartbeat idle_hb;
  idle_hb.set_idle(true);  // legitimately waiting: never trips
  Heartbeat busy_hb;       // busy but making progress: never trips
  Watchdog::Options o;
  o.deadline_ms = 40;
  Watchdog wd(o);
  wd.add("idler", &idle_hb);
  wd.add("worker", &busy_hb);
  wd.arm();
  for (int i = 0; i < 30; ++i) {
    busy_hb.beat();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  wd.disarm();
  EXPECT_FALSE(wd.tripped());
  EXPECT_EQ(wd.tripped_name(), nullptr);
}

// ---------------------------------------------------------------------------
// Pipeline fault scenarios
// ---------------------------------------------------------------------------

TEST_F(FailPointTest, ReaderStallTripsWatchdogWithSnapshot) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  CaptureErrors cap;
  // One reader sleeps 300 ms mid-strand while marked busy; the 50 ms
  // watchdog deadline must fire, dump the snapshot, and cancel the run.
  ASSERT_TRUE(fail::configure("reader.stall=once,delay:300"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.watchdog_ms = 50;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const RunResult r =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &any, &st);
  EXPECT_EQ(r.status, RunStatus::kStalled);
  EXPECT_TRUE(r.watchdog_tripped);
  EXPECT_FALSE(r.ok());
  EXPECT_STREQ(r.status_name(), "stalled");
  EXPECT_EQ(st.watchdog_trips, 1u);
  EXPECT_GE(fail::fire_count("reader.stall"), 1u);
  const std::string out = cap.text();
  EXPECT_NE(out.find("WATCHDOG"), std::string::npos) << out;
  EXPECT_NE(out.find("[pint "), std::string::npos) << out;  // sink header
  EXPECT_NE(out.find("queue: head="), std::string::npos) << out;
  EXPECT_NE(out.find("consumer"), std::string::npos) << out;
}

TEST_F(FailPointTest, SlowButProgressingReaderDoesNotTrip) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  // Every strand costs an extra 2 ms but the lane beats between sleeps:
  // slow is not stalled, so a (generous) watchdog must stay quiet.
  ASSERT_TRUE(fail::configure("reader.stall=delay:2"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.watchdog_ms = 400;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const RunResult r =
      run_pint(o, [&] { racy_tree(3, pool.data()); }, &any, &st);
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_FALSE(r.watchdog_tripped);
  EXPECT_EQ(st.watchdog_trips, 0u);
  EXPECT_GT(fail::fire_count("reader.stall"), 0u);
  EXPECT_TRUE(any);
}

TEST_F(FailPointTest, PoolAllocFailureDegradesToCleanOom) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  PintDetector::Options o;
  o.core_workers = 2;
  std::vector<unsigned char> pool(64, 0);

  bool clean_any = false;
  const RunResult clean =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &clean_any);
  ASSERT_EQ(clean.status, RunStatus::kOk);
  ASSERT_TRUE(clean_any);

  CaptureErrors cap;
  ASSERT_TRUE(fail::configure("pool.alloc=once"));
  bool faulty_any = false;
  detect::Stats::Snapshot st{};
  const RunResult r =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &faulty_any, &st);
  // The emergency reserve absorbs the failed allocation: the run finishes,
  // reports kOutOfMemory, and detection still matches the clean run.  The
  // ASan lane additionally proves the degradation path leaks nothing.
  EXPECT_EQ(r.status, RunStatus::kOutOfMemory);
  EXPECT_STREQ(r.status_name(), "out-of-memory");
  EXPECT_GE(st.oom_events, 1u);
  EXPECT_EQ(fail::fire_count("pool.alloc"), 1u);
  EXPECT_EQ(faulty_any, clean_any);
  EXPECT_NE(cap.text().find("allocation"), std::string::npos);
}

TEST_F(FailPointTest, SpawnFailureFallsBackToSequentialHistory) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  CaptureErrors cap;
  ASSERT_TRUE(fail::configure("history.spawn=once"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.parallel_history = true;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  const RunResult r = run_pint(o, [&] { racy_tree(4, pool.data()); }, &any);
  // Detection is complete and exact in the fallback mode; only the
  // history-pipeline asynchrony is lost, so the status stays kOk.
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_TRUE(r.degraded_sequential_history);
  EXPECT_TRUE(any);
  EXPECT_NE(cap.text().find("falling back"), std::string::npos);
}

TEST_F(FailPointTest, QueueFullStormKeepsDetectionExact) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  PintDetector::Options o;
  o.core_workers = 2;
  o.queue_capacity = 8;  // tiny ring + injected full-pressure
  std::vector<unsigned char> pool(1024, 0);

  ASSERT_TRUE(fail::configure("ahqueue.push.full=prob:0.5,seed:11"));
  bool racy_any = false;
  detect::Stats::Snapshot st{};
  const RunResult r1 =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &racy_any, &st);
  EXPECT_EQ(r1.status, RunStatus::kOk);
  EXPECT_TRUE(racy_any);  // matches the oracle: the racy tree races
  EXPECT_GT(st.stalled_pushes, 0u);
  EXPECT_GT(st.backoff_pauses, 0u);

  fail::reset();
  ASSERT_TRUE(fail::configure("ahqueue.push.full=prob:0.5,seed:11"));
  bool clean_any = true;
  const RunResult r2 =
      run_pint(o, [&] { disjoint_tree(4, pool.data(), 0); }, &clean_any);
  EXPECT_EQ(r2.status, RunStatus::kOk);
  EXPECT_FALSE(clean_any);  // and the race-free tree stays race-free
}

TEST_F(FailPointTest, TransientBackoffDoesNotTripWatchdogLater) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  // Regression: a single queue-full backoff marks the collector-backoff
  // heartbeat busy; collect() must return it to idle once the push lands,
  // or any run outliving the watchdog deadline after one transient stall
  // is cancelled as kStalled despite being perfectly healthy.
  ASSERT_TRUE(fail::configure("ahqueue.push.full=once"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.watchdog_ms = 50;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const RunResult r = run_pint(
      o,
      [&] {
        racy_tree(3, pool.data());  // pushes strands; first push is stalled
        // Keep the run alive well past the deadline after the stall.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      },
      &any, &st);
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_FALSE(r.watchdog_tripped);
  EXPECT_EQ(st.watchdog_trips, 0u);
  EXPECT_GE(st.stalled_pushes, 1u);
  EXPECT_EQ(fail::fire_count("ahqueue.push.full"), 1u);
  EXPECT_TRUE(any);
}

TEST_F(FailPointTest, SequentialRingCapShedsAndReportsOom) {
  // The cap itself is the fault: sequential mode buffers every strand, so a
  // 16-slot ceiling against ~dozens of strands must shed, keep running, and
  // report kOutOfMemory.  With "ahqueue.push.full" armed as well, every
  // push is forced full and each strand past the cap is shed.  Either way
  // RunResult (like the sampler gauge and dump_progress) reads the one
  // Stats::dropped_strands counter.
  for (const char* spec : {"", "ahqueue.push.full=always"}) {
    if (*spec != '\0' && !fail::kCompiledIn) continue;
    CaptureErrors cap;
    fail::reset();
    ASSERT_TRUE(fail::configure(spec));
    PintDetector::Options o;
    o.parallel_history = false;
    o.queue_capacity = 8;
    o.max_queue_capacity = 16;
    std::vector<unsigned char> pool(64, 0);
    bool any = false;
    detect::Stats::Snapshot st{};
    const RunResult r =
        run_pint(o, [&] { racy_tree(5, pool.data()); }, &any, &st);
    EXPECT_EQ(r.status, RunStatus::kOutOfMemory) << spec;
    EXPECT_GT(r.dropped_strands, 0u) << spec;
    EXPECT_EQ(st.dropped_strands, r.dropped_strands) << spec;
    EXPECT_GE(st.oom_events, 1u) << spec;
    EXPECT_NE(cap.text().find("max_queue_capacity"), std::string::npos)
        << spec;
  }
}

TEST_F(FailPointTest, UncappedSequentialRingStillGrows) {
  // Regression guard for the bounded-growth rewrite: the default
  // (max_queue_capacity = 0) keeps the old grow-forever behaviour.
  PintDetector::Options o;
  o.parallel_history = false;
  o.queue_capacity = 8;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  const RunResult r = run_pint(o, [&] { racy_tree(5, pool.data()); }, &any);
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_EQ(r.dropped_strands, 0u);
  EXPECT_TRUE(any);
}

TEST_F(FailPointTest, BackToBackDetectorsHoldMallocInUseFlat) {
  // Every detector owns what it allocates and frees it when destroyed, so a
  // process that builds detectors one after another must not keep any of
  // it: malloc's in-use bytes after the last run stay where they were after
  // the fifth (the first few runs warm malloc's own arenas and the kernel's
  // code paths).  The runs alternate 2-core-worker, 2-shard PINT with STINT
  // on mmul; every fourth PINT run fails one pool allocation, so the
  // emergency-reserve path is held to the same bound.
  //
  // The bound sits far above what per-owner storage leaves behind (4.6-9.0
  // KB over the 25 runs, six runs on a 4-thread x86-64 host) and far below
  // what a cross-run pool keeps: the process-wide recycler this replaced
  // grew 2.6-3.0 MB over the same 25 runs.
#if defined(PINT_ASAN) || defined(PINT_TSAN)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
  constexpr int kRuns = 30;
  constexpr int kWarmRuns = 5;
  constexpr std::size_t kMaxGrowthBytes = std::size_t(1) << 20;
  kernels::KernelConfig cfg;
  cfg.scale = 0.5;
  std::size_t warm = 0;
  for (int i = 1; i <= kRuns; ++i) {
    {
      auto k = kernels::make_kernel("mmul", cfg);
      k->prepare();
      if (i % 2 == 0) {
        stint::StintDetector det;
        det.run([&] { k->run(); });
        EXPECT_FALSE(det.reporter().any()) << "run " << i;
      } else {
        const bool inject = fail::kCompiledIn && i % 8 == 1;
        CaptureErrors cap;
        if (inject) {
          ASSERT_TRUE(fail::configure("pool.alloc=once"));
        }
        PintDetector::Options o;
        o.core_workers = 2;
        o.history_shards = 2;
        PintDetector det(o);
        const RunResult r = det.run([&] { k->run(); });
        EXPECT_FALSE(det.reporter().any()) << "run " << i;
        EXPECT_EQ(r.status, inject ? RunStatus::kOutOfMemory : RunStatus::kOk)
            << "run " << i;
        fail::reset();
      }
    }
    if (i == kWarmRuns) warm = mallinfo2().uordblks;
  }
  const std::size_t last = mallinfo2().uordblks;
  EXPECT_LT(last, warm + kMaxGrowthBytes)
      << "malloc in-use grew from " << warm << " to " << last << " bytes over "
      << kRuns - kWarmRuns << " runs";
}

// ---------------------------------------------------------------------------
// Reporter record shedding
// ---------------------------------------------------------------------------

TEST(ReporterTest, DroppedRecordsAreObservable) {
  detect::RaceReporter rep(/*max_records=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rep.report(/*prev_sid=*/10 + 2 * i, true, /*cur_sid=*/11 + 2 * i, true,
               /*lo=*/0, /*hi=*/8);
  }
  EXPECT_EQ(rep.distinct_races(), 5u);  // counting never stops
  EXPECT_EQ(rep.records().size(), 2u);  // detail capped at max_records
  EXPECT_EQ(rep.dropped_records(), 3u);
  rep.clear();
  EXPECT_EQ(rep.dropped_records(), 0u);
}

}  // namespace
}  // namespace pint::test
