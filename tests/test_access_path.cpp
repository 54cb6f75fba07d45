// Equivalence regression for the access hot path (DESIGN.md §9): the
// thread-local AccessCursor fast path and the classic record_access_slow
// route must produce the same detection result, and so must coalescing
// on/off.  Checked at three strengths:
//
//  * cursor unit tests: install/invalidate, inline coalescing, pending-ring
//    spill, the misuse guard and the global knob;
//  * deterministic detectors (STINT, phased one-core PINT): the full race
//    RECORDS are bit-identical across fast path on/off (same sids, same
//    kinds, same byte ranges - rebased when the two runs use fresh kernel
//    heaps);
//  * pipelined and sharded PINT: the detected pair set and distinct count
//    match; the sampled records() prefix is only compared below the
//    reporter cap;
//  * coalesce on/off: identical racing-pair sets on every kernel; on random
//    programs the contract is the detection verdict (checked against the
//    oracle), since finer intervals may retain different readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "kernels/kernels.hpp"

using namespace pint;

namespace {

// RAII: tests flip the global fast-path knob; never leak the setting.
struct FastPathGuard {
  bool saved = detect::access_fast_path();
  ~FastPathGuard() { detect::set_access_fast_path(saved); }
};

// RAII: the cursor unit tests run with no detector installed, so they open
// the hooks' global gate themselves; with it closed record_read/record_write
// return before reaching the cursor.
struct HooksOn {
  bool saved = detail::g_instrumentation_on.load();
  HooksOn() { detail::g_instrumentation_on.store(true); }
  ~HooksOn() { detail::g_instrumentation_on.store(saved); }
};

// ---------------------------------------------------------------------------
// Cursor unit tests (drive record_read/record_write - no detector)
// ---------------------------------------------------------------------------

TEST(AccessCursor, SequentialAccessesCoalesceToOneInterval) {
  FastPathGuard g;
  HooksOn on;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, /*coalesce=*/true);
  ASSERT_TRUE(detect::cursor_installed());
  alignas(8) unsigned char buf[256] = {};
  for (int i = 0; i < 32; ++i) record_read(buf + i * 8, 8);
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_FALSE(detect::cursor_installed());
  EXPECT_EQ(fl.raw_reads, 32u);
  EXPECT_EQ(fl.raw_writes, 0u);
  // Every access is absorbed in cursor storage (no per-access buffer
  // touch), including the one that opened the interval: hits = raw - spills.
  EXPECT_EQ(fl.hits, 32u);
  EXPECT_EQ(fl.spills, 0u);
  reads.finalize(true);
  ASSERT_EQ(reads.items().size(), 1u);
  EXPECT_EQ(reads.items()[0].lo, detect::addr_of(buf));
  EXPECT_EQ(reads.items()[0].hi, detect::addr_of(buf) + 255);
  EXPECT_TRUE(writes.empty());
}

TEST(AccessCursor, InterleavedStreamsStayInThePendingRing) {
  FastPathGuard g;
  HooksOn on;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  // kTails interleaved streams - the GEMM shape the tail probe exists for.
  // One arena with gaps between the streams: separate allocations can land
  // adjacent (they do under the TSan allocator), which would legitimately
  // merge the per-stream intervals and break the counts below.
  constexpr std::size_t kStreams = detect::AccessBuffer::kTails;
  constexpr std::size_t kStride = 1024;  // 512 used + 512 gap
  std::vector<unsigned char> arena(kStreams * kStride);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      record_write(arena.data() + s * kStride + i * 8, 8);
    }
  }
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_EQ(fl.raw_writes, 64u * kStreams);
  // kTails streams fit exactly in cursor storage (open + pending ring), so
  // nothing ever spills: every access counts as absorbed.
  EXPECT_EQ(fl.hits, 64u * kStreams);
  EXPECT_EQ(fl.spills, 0u);
  writes.finalize(true);
  EXPECT_EQ(writes.items().size(), kStreams);
}

TEST(AccessCursor, OverflowSpillsToTheBufferWithoutLosingBytes) {
  FastPathGuard g;
  HooksOn on;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  // More concurrent streams than cursor storage: correctness must not
  // depend on the cursor's capacity, only hit counts may drop.  Gapped
  // arena for the same reason as above.
  constexpr std::size_t kStreams = detect::AccessBuffer::kTails * 3;
  constexpr std::size_t kStride = 128;  // 64 used + 64 gap
  std::vector<unsigned char> arena(kStreams * kStride);
  for (int i = 0; i < 8; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      record_read(arena.data() + s * kStride + i * 8, 8);
    }
  }
  detect::cursor_invalidate();
  reads.finalize(true);
  ASSERT_EQ(reads.items().size(), kStreams);
  std::uint64_t bytes = 0;
  for (const auto& iv : reads.items()) bytes += iv.hi - iv.lo + 1;
  EXPECT_EQ(bytes, kStreams * 64u);
}

TEST(AccessCursor, CoalesceOffRecordsEveryAccessRaw) {
  FastPathGuard g;
  HooksOn on;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, /*coalesce=*/false);
  unsigned char buf[128] = {};
  for (int i = 0; i < 16; ++i) record_write(buf + i * 8, 8);
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_EQ(fl.raw_writes, 16u);
  EXPECT_EQ(fl.hits, 0u);
  writes.finalize(false);
  EXPECT_EQ(writes.items().size(), 16u);  // ablation: one interval per access
}

TEST(AccessCursor, KnobOffMeansNoCursorEverInstalls) {
  FastPathGuard g;
  detect::set_access_fast_path(false);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  EXPECT_FALSE(detect::cursor_installed());
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_EQ(fl.raw_reads + fl.raw_writes + fl.hits, 0u);
}

TEST(AccessCursor, DoubleInstallFlushesThePreviousStrand) {
  FastPathGuard g;
  HooksOn on;
  detect::set_access_fast_path(true);
  detect::AccessBuffer r1, w1, r2, w2;
  unsigned char buf[64] = {};
  detect::cursor_install(&r1, &w1, true);
  record_read(buf, 8);
  detect::cursor_install(&r2, &w2, true);  // misuse guard path
  record_read(buf + 8, 8);
  detect::cursor_invalidate();
  r1.finalize(true);
  r2.finalize(true);
  ASSERT_EQ(r1.items().size(), 1u);  // first strand's access was not lost
  ASSERT_EQ(r2.items().size(), 1u);
  EXPECT_EQ(r1.items()[0].lo, detect::addr_of(buf));
  EXPECT_EQ(r2.items()[0].lo, detect::addr_of(buf) + 8);
}

TEST(AccessCursor, ZeroLengthAccessesAreDiscardedByTheWrappers) {
  unsigned char buf[8] = {};
  record_read(buf, 0);  // must not reach any recording path
  record_write(buf, 0);
}

// ---------------------------------------------------------------------------
// Whole-detector equivalence
// ---------------------------------------------------------------------------

// Full record: (prev_sid, cur_sid, prev_write, cur_write, lo, hi).
using FullRecord = std::tuple<std::uint64_t, std::uint64_t, int, int,
                              std::uint64_t, std::uint64_t>;
// Dedup identity: symmetric strand pair + kind bits (report.hpp pair_key).
using PairKey = std::tuple<std::uint64_t, std::uint64_t, int, int>;

enum class Sys { kStint, kPintSeq, kPint1, kPintShard };

struct RunOut {
  std::vector<FullRecord> full;    // sorted, absolute addresses
  std::vector<FullRecord> rebased; // same, addresses rebased to the run min
  std::vector<PairKey> pairs;      // sorted + deduped
  std::uint64_t distinct = 0;
  std::uint64_t dropped = 0;       // records shed at the reporter cap
  detect::Stats::Snapshot stats{};
};

RunOut summarize(const detect::RaceReporter& rep,
                 const detect::Stats& stats) {
  RunOut out;
  std::uint64_t min_lo = ~std::uint64_t(0);
  for (const detect::RaceRecord& r : rep.records()) {
    out.full.push_back(
        {r.prev_sid, r.cur_sid, r.prev_write, r.cur_write, r.lo, r.hi});
    min_lo = std::min(min_lo, r.lo);
    std::uint64_t a = r.prev_sid, b = r.cur_sid;
    int aw = r.prev_write, bw = r.cur_write;
    if (a > b) {
      std::swap(a, b);
      std::swap(aw, bw);
    }
    out.pairs.push_back({a, b, aw, bw});
  }
  std::sort(out.full.begin(), out.full.end());
  // Kernels allocate their working set per instance, so two runs see the
  // same byte ranges at different heap bases; rebasing to the run's minimum
  // recorded address makes records comparable while still pinning every
  // relative offset and interval extent bit-for-bit.
  out.rebased = out.full;
  for (auto& [ps, cs, pw, cw, lo, hi] : out.rebased) {
    lo -= min_lo;
    hi -= min_lo;
  }
  std::sort(out.pairs.begin(), out.pairs.end());
  out.pairs.erase(std::unique(out.pairs.begin(), out.pairs.end()),
                  out.pairs.end());
  out.distinct = rep.distinct_races();
  out.dropped = rep.dropped_records();
  out.stats = stats.snapshot();
  return out;
}

RunOut run_config(Sys sys, bool coalesce, bool fast,
                  const std::function<void()>& body, std::uint64_t seed = 7) {
  FastPathGuard g;
  detect::set_access_fast_path(fast);
  if (sys == Sys::kStint) {
    stint::StintDetector::Options o;
    o.seed = seed;
    o.coalesce = coalesce;
    stint::StintDetector det(o);
    det.run(body);
    return summarize(det.reporter(), det.stats());
  }
  pintd::PintDetector::Options o;
  o.seed = seed;
  o.coalesce = coalesce;
  o.parallel_history = sys != Sys::kPintSeq;
  if (sys == Sys::kPintShard) o.history_shards = 2;  // §VI sharded mode
  o.core_workers = 1;
  pintd::PintDetector det(o);
  det.run(body);
  return summarize(det.reporter(), det.stats());
}

class KernelAccessPath : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelAccessPath, FastPathIsBitIdenticalOnDeterministicDetectors) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;  // non-trivial race sets to compare
  for (Sys sys : {Sys::kStint, Sys::kPintSeq}) {
    auto fresh = [&] {
      auto k = kernels::make_kernel(GetParam(), cfg);
      k->prepare();
      return k;
    };
    auto kf = fresh();
    const RunOut fast = run_config(sys, true, true, [&] { kf->run(); });
    auto ks = fresh();
    const RunOut slow = run_config(sys, true, false, [&] { ks->run(); });
    // Each run gets a fresh kernel instance (fresh heap base), so compare
    // rebased records: every sid, kind, relative offset and interval extent
    // must match bit-for-bit.
    EXPECT_EQ(fast.rebased, slow.rebased)
        << "fast/slow records diverge, sys=" << int(sys);
    EXPECT_EQ(fast.distinct, slow.distinct);
    // The route split must be total: everything fast with the cursor on,
    // everything slow with it off, identical raw-access totals either way.
    EXPECT_GT(fast.stats.fastpath_accesses, 0u);
    EXPECT_EQ(fast.stats.slowpath_accesses, 0u);
    EXPECT_EQ(slow.stats.fastpath_accesses, 0u);
    EXPECT_GT(slow.stats.slowpath_accesses, 0u);
    EXPECT_EQ(fast.stats.raw_reads + fast.stats.raw_writes,
              slow.stats.raw_reads + slow.stats.raw_writes);
  }
}

TEST_P(KernelAccessPath, CoalesceOnOffReportTheSameRacingPairs) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;
  for (const bool fast : {true, false}) {
    auto fresh = [&] {
      auto k = kernels::make_kernel(GetParam(), cfg);
      k->prepare();
      return k;
    };
    auto kon = fresh();
    const RunOut on = run_config(Sys::kStint, true, fast, [&] { kon->run(); });
    auto koff = fresh();
    const RunOut off =
        run_config(Sys::kStint, false, fast, [&] { koff->run(); });
    EXPECT_EQ(on.pairs, off.pairs) << "coalesce on/off diverge, fast=" << fast;
  }
}

TEST_P(KernelAccessPath, PipelinedPintAgreesOnThePairSet) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;
  auto fresh = [&] {
    auto k = kernels::make_kernel(GetParam(), cfg);
    k->prepare();
    return k;
  };
  // The detected pair SET is deterministic (queue order fixes processing
  // order), but records() keeps only the first max_records distinct pairs,
  // and on race-heavy kernels WHICH pairs land in that prefix depends on
  // reader-thread interleaving.  So the sampled pair sets are only
  // comparable when neither run hit the cap; the distinct count always is.
  // Sharded PINT's shard workers interleave the same way.
  for (const Sys sys : {Sys::kPint1, Sys::kPintShard}) {
    auto kf = fresh();
    const RunOut fast = run_config(sys, true, true, [&] { kf->run(); });
    auto ks = fresh();
    const RunOut slow = run_config(sys, true, false, [&] { ks->run(); });
    EXPECT_EQ(fast.distinct, slow.distinct) << "sys=" << int(sys);
    if (fast.dropped == 0 && slow.dropped == 0) {
      EXPECT_EQ(fast.pairs, slow.pairs) << "sys=" << int(sys);
    }
  }
}

TEST_P(KernelAccessPath, RaceFreeKernelStaysRaceFreeUnderTheCursor) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  auto k = kernels::make_kernel(GetParam(), cfg);
  k->prepare();
  const RunOut out = run_config(Sys::kPintSeq, true, true, [&] { k->run(); });
  EXPECT_TRUE(out.full.empty()) << "cursor fast path introduced a false race";
  EXPECT_TRUE(k->verify());
}

INSTANTIATE_TEST_SUITE_P(All, KernelAccessPath,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

// Random series-parallel programs: denser spawn/sync structure than the
// kernels, so cursor install/invalidate churns at every boundary shape.
TEST(RandomProgramAccessPath, AllFourConfigurationsAgree) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    test::ProgramConfig pc;
    auto prog = test::ProgramGen(seed, pc).generate();
    std::vector<unsigned char> pool(test::program_pool_bytes(pc), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto body = [p, base] { test::exec_node(*p, base); };

    // Same pool for every run, so records compare at absolute addresses.
    // Fast vs slow must agree bit-for-bit at either coalesce setting; across
    // coalesce settings only the detection VERDICT is contractual for random
    // programs (finer intervals can retain different readers in the history,
    // so the sampled pair set may differ - see report.hpp).
    const RunOut ref = run_config(Sys::kStint, true, true, body);
    const RunOut slow = run_config(Sys::kStint, true, false, body);
    EXPECT_EQ(ref.full, slow.full) << "seed=" << seed;
    const RunOut raw_fast = run_config(Sys::kStint, false, true, body);
    const RunOut raw_slow = run_config(Sys::kStint, false, false, body);
    EXPECT_EQ(raw_fast.full, raw_slow.full) << "seed=" << seed;
    EXPECT_EQ(ref.distinct > 0, raw_fast.distinct > 0) << "seed=" << seed;
    EXPECT_EQ(ref.distinct > 0,
              test::oracle_any_race(*p, test::program_pool_bytes(pc)))
        << "seed=" << seed;
    // Sharded PINT splits every strand's intervals across shard workers,
    // so its verdict must survive the denser boundary churn too.
    if (seed <= 8) {
      const RunOut sh = run_config(Sys::kPintShard, true, true, body);
      EXPECT_EQ(sh.distinct > 0, ref.distinct > 0) << "seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Migration under the inline hook
// ---------------------------------------------------------------------------
//
// The hook's hit path is inlined into the calling code, and that code moves
// to another OS thread whenever its continuation is stolen.  This tree
// records through record_read/record_write on both sides of every spawn and
// sync with 4 core workers, so stolen continuations go on recording on the
// thief.  A cursor address cached across a steal would tick the victim
// thread's cursor: the raw counts below would be off, and in the TSan lane
// (this TU is instrumented, unlike the kernel TUs) the two threads' cursor
// traffic is reported as a race.

constexpr int kTreeDepth = 6;  // 63 internal nodes, 64 leaves
constexpr std::uint64_t kInternalNodes = (1u << kTreeDepth) - 1;
constexpr std::uint64_t kLeafNodes = 1u << kTreeDepth;
constexpr int kSegment = 8;    // reads and writes per internal-node segment
constexpr int kLeafWork = 64;  // reads and writes per leaf (steal bait)
// Pool layout in 8-byte slots: [0, 3) are written by parallel leaves (the
// only races), slot 3 by a single leaf, slot 4 is read by every node, then
// kPrivateSlots per node id.
constexpr std::size_t kRacySlots = 3;
constexpr std::size_t kLoneSlot = 3;
constexpr std::size_t kSharedReadSlot = 4;
constexpr std::size_t kPrivateBase = 5;
constexpr std::size_t kPrivateSlots = 8;
constexpr std::size_t kPoolSlots =
    kPrivateBase + 2 * kLeafNodes * kPrivateSlots;

void touch_private(std::uint64_t* priv, int n) {
  for (int i = 0; i < n; ++i) {
    record_read(priv + i % kPrivateSlots, 8);
    record_write(priv + i % kPrivateSlots, 8);
  }
}

struct Tree {
  std::uint64_t* pool;
  bool await_steal;  // false on the one-worker oracle, which never steals
  std::atomic<int> moved{0};  // continuations resumed on another worker
};

// Node `id` in heap order (root 1, children 2id and 2id+1).  The leftmost
// leaf is reached first (work-first descent) with every ancestor's
// continuation waiting in its worker's deque; it holds on, recording
// nothing, until a thief has resumed one of them, so each run migrates.
void migrate_node(Tree* t, std::uint64_t id, int depth) {
  std::uint64_t* pool = t->pool;
  std::uint64_t* priv = pool + kPrivateBase + id * kPrivateSlots;
  record_read(pool + kSharedReadSlot, 8);
  if (depth == kTreeDepth) {
    if (id == kLeafNodes && t->await_steal) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (t->moved.load() == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    }
    touch_private(priv, kLeafWork);
    const std::uint64_t leaf = id - kLeafNodes;
    if (leaf % 8 == 0) record_write(pool + (leaf / 8) % kRacySlots, 8);
    if (leaf == 5) record_write(pool + kLoneSlot, 8);
    return;
  }
  touch_private(priv, kSegment);  // before the first spawn
  rt::SpawnScope sc;
  const rt::Worker* spawner = rt::current_worker();
  sc.spawn([=] { migrate_node(t, 2 * id, depth + 1); });
  if (rt::current_worker() != spawner) t->moved.fetch_add(1);
  touch_private(priv, kSegment);  // continuation: may run on a thief
  sc.spawn([=] { migrate_node(t, 2 * id + 1, depth + 1); });
  touch_private(priv, kSegment);
  sc.sync();
  touch_private(priv, kSegment);  // after the sync: possibly another thread
}

// The 8-byte pool slots that the run's race records cover.
std::set<std::size_t> racy_slots(const RunOut& r, const std::uint64_t* pool) {
  const detect::addr_t base = detect::addr_of(pool);
  std::set<std::size_t> slots;
  for (const auto& [ps, cs, pw, cw, lo, hi] : r.full) {
    if (lo < base || hi >= base + kPoolSlots * 8) {
      ADD_FAILURE() << "race record outside the pool";
      continue;
    }
    for (std::size_t s = (lo - base) / 8; s <= (hi - base) / 8; ++s) {
      slots.insert(s);
    }
  }
  return slots;
}

RunOut run_migrating_tree(bool fast, std::uint64_t* pool, int& moved) {
  FastPathGuard g;
  detect::set_access_fast_path(fast);
  pintd::PintDetector::Options o;
  o.core_workers = 4;
  pintd::PintDetector det(o);
  Tree t{pool, true};
  det.run([&t] { migrate_node(&t, 1, 0); });
  moved = t.moved.load();
  return summarize(det.reporter(), det.stats());
}

TEST(AccessCursorMigration, StolenContinuationsRecordOnTheThiefsCursor) {
  std::vector<std::uint64_t> pool(kPoolSlots, 0);
  std::uint64_t* p = pool.data();
  oracle::OracleDetector oracle;
  Tree serial{p, false};
  oracle.run([&serial] { migrate_node(&serial, 1, 0); });
  const std::set<std::size_t> truth =
      racy_slots(summarize(oracle.reporter(), oracle.stats()), p);
  ASSERT_EQ(truth, (std::set<std::size_t>{0, 1, 2}));

  const std::uint64_t reads = kInternalNodes * (1 + 4 * kSegment) +
                              kLeafNodes * (1 + kLeafWork);
  const std::uint64_t writes =
      kInternalNodes * 4 * kSegment + kLeafNodes * kLeafWork + 8 + 1;
  for (int rep = 0; rep < 20; ++rep) {
    int moved = 0;
    const RunOut fast = run_migrating_tree(true, p, moved);
    // Without a migrated continuation the run proved nothing.
    EXPECT_GT(moved, 0) << "rep=" << rep;
    const RunOut slow = run_migrating_tree(false, p, moved);
    EXPECT_EQ(fast.stats.raw_reads, reads) << "rep=" << rep;
    EXPECT_EQ(fast.stats.raw_writes, writes) << "rep=" << rep;
    EXPECT_EQ(fast.stats.fastpath_accesses, reads + writes) << "rep=" << rep;
    EXPECT_EQ(fast.stats.slowpath_accesses, 0u) << "rep=" << rep;
    EXPECT_EQ(slow.stats.raw_reads, reads) << "rep=" << rep;
    EXPECT_EQ(slow.stats.raw_writes, writes) << "rep=" << rep;
    EXPECT_EQ(racy_slots(fast, p), truth) << "rep=" << rep;
    EXPECT_EQ(racy_slots(slow, p), truth) << "rep=" << rep;
    EXPECT_EQ(fast.distinct, slow.distinct) << "rep=" << rep;
  }
}

// Regression for the measured 0.00 cursor hit rate on the sort kernel: the
// old accounting charged every interval OPEN as a miss, so sort's
// alternating merge streams (which the pending ring absorbs perfectly)
// scored zero.  Hits are now defined as raw accesses minus actual
// AccessBuffer spills; sort must score well above the BENCH_access bar.
TEST(AccessCursor, SortKernelKeepsAHighCursorHitRate) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.2;  // the BENCH_access.json shape
  auto k = kernels::make_kernel("sort", cfg);
  k->prepare();
  const RunOut out = run_config(Sys::kStint, true, true, [&] { k->run(); });
  ASSERT_GT(out.stats.fastpath_accesses, 0u);
  const double rate = double(out.stats.fastpath_hits) /
                      double(out.stats.fastpath_accesses);
  EXPECT_GT(rate, 0.5) << "sort cursor hit rate regressed";
}

}  // namespace
