// Unit + property tests for the non-overlapping interval treap.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "support/rng.hpp"
#include "treap/interval_treap.hpp"

using namespace pint;
using treap::Accessor;
using treap::IntervalTreap;

namespace {

Accessor acc(std::uint64_t sid) { return {{}, sid}; }

struct Seg {
  std::uint64_t lo, hi, sid;
  bool operator==(const Seg&) const = default;
};

std::vector<Seg> contents(const IntervalTreap& t) {
  std::vector<Seg> out;
  t.for_each([&](std::uint64_t lo, std::uint64_t hi, const Accessor& a) {
    out.push_back({lo, hi, a.sid});
  });
  return out;
}

/// Reference model: one owner per byte.
class ByteModel {
 public:
  void write(std::uint64_t lo, std::uint64_t hi, std::uint64_t sid) {
    for (auto b = lo; b <= hi; ++b) owner_[b] = sid;
  }
  void erase(std::uint64_t lo, std::uint64_t hi) {
    owner_.erase(owner_.lower_bound(lo), owner_.upper_bound(hi));
  }
  /// Segments as (byte -> sid) coalesced like the treap would store them...
  /// only per-byte equality is checked, which is representation-independent.
  std::uint64_t at(std::uint64_t b) const {
    auto it = owner_.find(b);
    return it == owner_.end() ? 0 : it->second;
  }
  const std::map<std::uint64_t, std::uint64_t>& map() const { return owner_; }

 private:
  std::map<std::uint64_t, std::uint64_t> owner_;
};

std::uint64_t treap_at(const IntervalTreap& t, std::uint64_t b) {
  std::uint64_t sid = 0;
  t.query(b, b, [&](std::uint64_t, std::uint64_t, const Accessor& a) {
    sid = a.sid;
  });
  return sid;
}

}  // namespace

TEST(Treap, PaperExampleSplitsCorrectly) {
  // Paper §III-A: {[1,4]:u, [6,10]:v} + write [3,7]:w
  //            => {[1,2]:u, [3,7]:w, [8,10]:v}
  IntervalTreap t;
  t.insert_writer(1, 4, acc(1), [](auto, auto, const auto&) {});
  t.insert_writer(6, 10, acc(2), [](auto, auto, const auto&) {});
  std::vector<Seg> reported;
  t.insert_writer(3, 7, acc(3), [&](std::uint64_t lo, std::uint64_t hi,
                                    const Accessor& a) {
    reported.push_back({lo, hi, a.sid});
  });
  EXPECT_EQ(contents(t), (std::vector<Seg>{{1, 2, 1}, {3, 7, 3}, {8, 10, 2}}));
  // Overlapped segments reported in address order with previous owners.
  EXPECT_EQ(reported, (std::vector<Seg>{{3, 4, 1}, {6, 7, 2}}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, ExactCoverInsert) {
  IntervalTreap t;
  t.insert_writer(10, 20, acc(1), [](auto, auto, const auto&) {});
  std::vector<Seg> rep;
  t.insert_writer(10, 20, acc(2), [&](std::uint64_t lo, std::uint64_t hi,
                                      const Accessor& a) {
    rep.push_back({lo, hi, a.sid});
  });
  EXPECT_EQ(rep, (std::vector<Seg>{{10, 20, 1}}));
  EXPECT_EQ(contents(t), (std::vector<Seg>{{10, 20, 2}}));
}

TEST(Treap, InsertInsideSplitsBothSides) {
  IntervalTreap t;
  t.insert_writer(0, 100, acc(1), [](auto, auto, const auto&) {});
  t.insert_writer(40, 60, acc(2), [](auto, auto, const auto&) {});
  EXPECT_EQ(contents(t),
            (std::vector<Seg>{{0, 39, 1}, {40, 60, 2}, {61, 100, 1}}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, QueryDoesNotMutate) {
  IntervalTreap t;
  t.insert_writer(5, 9, acc(1), [](auto, auto, const auto&) {});
  int hits = 0;
  t.query(0, 100, [&](std::uint64_t lo, std::uint64_t hi, const Accessor& a) {
    EXPECT_EQ(lo, 5u);
    EXPECT_EQ(hi, 9u);
    EXPECT_EQ(a.sid, 1u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(contents(t).size(), 1u);
}

TEST(Treap, QueryTrimsToRange) {
  IntervalTreap t;
  t.insert_writer(10, 30, acc(1), [](auto, auto, const auto&) {});
  t.query(20, 25, [&](std::uint64_t lo, std::uint64_t hi, const Accessor&) {
    EXPECT_EQ(lo, 20u);
    EXPECT_EQ(hi, 25u);
  });
}

TEST(Treap, EraseRangeTruncatesBoundaries) {
  IntervalTreap t;
  t.insert_writer(0, 9, acc(1), [](auto, auto, const auto&) {});
  t.insert_writer(10, 19, acc(2), [](auto, auto, const auto&) {});
  t.insert_writer(20, 29, acc(3), [](auto, auto, const auto&) {});
  t.erase_range(5, 24);
  EXPECT_EQ(contents(t), (std::vector<Seg>{{0, 4, 1}, {25, 29, 3}}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, EraseAllLeavesEmpty) {
  IntervalTreap t;
  for (int i = 0; i < 64; ++i) {
    t.insert_writer(std::uint64_t(i) * 10, std::uint64_t(i) * 10 + 5, acc(1),
                    [](auto, auto, const auto&) {});
  }
  t.erase_range(0, 10000);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.live_accessors(), 0u);
}

TEST(Treap, EraseAllCoverageReleasesEveryAccessor) {
  // Thousands of intervals from hundreds of accessors span many leaves and
  // inner nodes; erasing them piecewise must free every node level and
  // every interned accessor slot.  Each accessor's inserts are consecutive,
  // as a strand's are, so the pool's one-entry cache interns it once.
  IntervalTreap t;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    t.insert_writer(i * 16, i * 16 + 7, acc(1 + i / 20),
                    [](auto, auto, const auto&) {});
  }
  EXPECT_EQ(t.live_accessors(), 300u);
  ASSERT_TRUE(t.check_invariants());
  for (std::uint64_t lo = 0; lo < 6000 * 16; lo += 4096) {
    t.erase_range(lo, lo + 4095);
    ASSERT_TRUE(t.check_invariants()) << "lo=" << lo;
  }
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.live_accessors(), 0u);
  // The store is reusable after emptying.
  t.insert_writer(5, 9, acc(7), [](auto, auto, const auto&) {});
  EXPECT_EQ(contents(t), (std::vector<Seg>{{5, 9, 7}}));
  EXPECT_EQ(t.live_accessors(), 1u);
}

TEST(Treap, ReaderInsertSeriesReplaces) {
  IntervalTreap t;
  t.insert_reader(0, 50, acc(1), [](const Accessor&, const Accessor&) {
    return true;  // unconditionally take new (no prior anyway)
  });
  // New reader wins every overlap (simulates prev ~> cur).
  t.insert_reader(10, 20, acc(2),
                  [](const Accessor&, const Accessor&) { return true; });
  EXPECT_EQ(contents(t),
            (std::vector<Seg>{{0, 9, 1}, {10, 20, 2}, {21, 50, 1}}));
}

TEST(Treap, ReaderInsertKeepLosesGaps) {
  IntervalTreap t;
  t.insert_reader(10, 20, acc(1),
                  [](const Accessor&, const Accessor&) { return true; });
  // Old reader kept on overlap; the new one still fills uncovered gaps.
  t.insert_reader(0, 30, acc(2),
                  [](const Accessor&, const Accessor&) { return false; });
  EXPECT_EQ(contents(t),
            (std::vector<Seg>{{0, 9, 2}, {10, 20, 1}, {21, 30, 2}}));
}

TEST(Treap, ReaderInsertCoalescesSameWinner) {
  IntervalTreap t;
  t.insert_reader(10, 14, acc(1),
                  [](const Accessor&, const Accessor&) { return true; });
  t.insert_reader(15, 19, acc(1),
                  [](const Accessor&, const Accessor&) { return true; });
  // Covering insert where the NEW accessor always wins merges to one node.
  t.insert_reader(5, 25, acc(1),
                  [](const Accessor&, const Accessor&) { return true; });
  EXPECT_EQ(contents(t), (std::vector<Seg>{{5, 25, 1}}));
}

TEST(Treap, AdjacentIntervalsDoNotMergeAcrossOwners) {
  IntervalTreap t;
  t.insert_writer(0, 9, acc(1), [](auto, auto, const auto&) {});
  t.insert_writer(10, 19, acc(2), [](auto, auto, const auto&) {});
  EXPECT_EQ(contents(t).size(), 2u);
}

TEST(Treap, SingleByteIntervals) {
  IntervalTreap t;
  for (std::uint64_t b = 0; b < 100; b += 2) {
    t.insert_writer(b, b, acc(b + 1), [](auto, auto, const auto&) {});
  }
  EXPECT_EQ(t.size(), 50u);
  t.insert_writer(0, 99, acc(777), [](auto, auto, const auto&) {});
  EXPECT_EQ(contents(t), (std::vector<Seg>{{0, 99, 777}}));
}

TEST(Treap, PropertyWriterMatchesByteModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed);
    IntervalTreap t;
    ByteModel m;
    constexpr std::uint64_t kSpan = 2000;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t lo = rng.next_below(kSpan);
      const std::uint64_t hi = lo + rng.next_below(64);
      const auto kind = rng.next_below(10);
      if (kind < 7) {
        const std::uint64_t sid = 1 + rng.next_below(1000);
        t.insert_writer(lo, hi, acc(sid), [](auto, auto, const auto&) {});
        m.write(lo, hi, sid);
      } else if (kind < 9) {
        // query must report exactly the model's owned bytes
        std::map<std::uint64_t, std::uint64_t> got;
        t.query(lo, hi,
                [&](std::uint64_t a, std::uint64_t b, const Accessor& who) {
                  for (auto x = a; x <= b; ++x) got[x] = who.sid;
                });
        for (auto x = lo; x <= hi; ++x) {
          const auto it = got.find(x);
          EXPECT_EQ(it == got.end() ? 0 : it->second, m.at(x));
        }
      } else {
        t.erase_range(lo, hi);
        m.erase(lo, hi);
      }
    }
    ASSERT_TRUE(t.check_invariants()) << "seed=" << seed;
    for (std::uint64_t b = 0; b < kSpan + 64; b += 7) {
      ASSERT_EQ(treap_at(t, b), m.at(b)) << "seed=" << seed << " byte=" << b;
    }
  }
}

TEST(Treap, PropertyNoOverlapInvariantUnderChurn) {
  Xoshiro256 rng(99);
  IntervalTreap t;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t lo = rng.next_below(1 << 16);
    const std::uint64_t hi = lo + rng.next_below(256);
    if (rng.next_below(4) == 0) {
      t.erase_range(lo, hi);
    } else if (rng.next_below(2) == 0) {
      t.insert_writer(lo, hi, acc(op + 1), [](auto, auto, const auto&) {});
    } else {
      t.insert_reader(lo, hi, acc(op + 1),
                      [&](const Accessor&, const Accessor&) {
                        return rng.next_below(2) == 0;
                      });
    }
    if (op % 2000 == 0) {
      ASSERT_TRUE(t.check_invariants()) << "op=" << op;
    }
  }
  EXPECT_TRUE(t.check_invariants());
}

namespace {

struct Iv {
  std::uint64_t lo, hi;
};

bool resolve_by_sid(const Accessor& prev, const Accessor& a) {
  return ((prev.sid * 31 + a.sid) & 1) == 0;
}

/// Byte-owner model over [0, span): 0 = uncovered.
struct FlatModel {
  explicit FlatModel(std::uint64_t span) : owner(span, 0) {}
  void write(const Iv& v, std::uint64_t sid) {
    for (auto b = v.lo; b <= v.hi; ++b) owner[b] = sid;
  }
  void read(const Iv& v, std::uint64_t sid) {
    for (auto b = v.lo; b <= v.hi; ++b) {
      if (owner[b] == 0 || resolve_by_sid(acc(owner[b]), acc(sid))) {
        owner[b] = sid;
      }
    }
  }
  void erase(const Iv& v) {
    for (auto b = v.lo; b <= v.hi; ++b) owner[b] = 0;
  }
  std::vector<std::uint64_t> owner;
};

/// Checks the store byte for byte against the model (via for_each).
::testing::AssertionResult same_bytes(const IntervalTreap& t,
                                      const FlatModel& m) {
  std::vector<std::uint64_t> got(m.owner.size(), 0);
  bool in_range = true;
  t.for_each([&](std::uint64_t lo, std::uint64_t hi, const Accessor& a) {
    if (hi >= got.size()) {
      in_range = false;
      return;
    }
    for (auto b = lo; b <= hi; ++b) got[b] = a.sid;
  });
  if (!in_range) return ::testing::AssertionFailure() << "segment past span";
  for (std::size_t b = 0; b < got.size(); ++b) {
    if (got[b] != m.owner[b]) {
      return ::testing::AssertionFailure()
             << "byte " << b << ": store " << got[b] << ", model "
             << m.owner[b];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// Every operation and every *_run form against the byte model, at a key
// span that grows the tree past three levels (more than 32 * 32 entries
// cannot fit under one inner node), with leaf splits, erases across many
// leaves, and a final shrink that collapses the root chain.
TEST(Treap, PropertyAllOpsAndRunsMatchByteModelAcrossLevels) {
  constexpr std::uint64_t kSpan = 1 << 16;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed);
    IntervalTreap t;
    FlatModel m(kSpan + 64);
    std::size_t peak = 0;
    auto dense_run = [&]() {
      std::vector<Iv> r;
      std::uint64_t lo = rng.next_below(kSpan);
      for (std::size_t j = 0, k = 1 + rng.next_below(12); j < k; ++j) {
        const std::uint64_t len = 1 + rng.next_below(48);
        if (lo + len > kSpan) break;
        r.push_back({lo, lo + len - 1});
        lo += len + rng.next_below(3);
      }
      return r;
    };
    auto strided_run = [&]() {  // the fft gather shape, across many leaves
      std::vector<Iv> r;
      const std::uint64_t stride = 64 + rng.next_below(4096);
      std::uint64_t lo = rng.next_below(stride);
      for (std::size_t j = 0, k = 2 + rng.next_below(64); j < k; ++j) {
        const std::uint64_t len = 1 + rng.next_below(8);
        if (lo + len > kSpan) break;
        r.push_back({lo, lo + len - 1});
        lo += stride;
      }
      return r;
    };
    for (int op = 0; op < 4000; ++op) {
      const bool run = rng.next_below(2) == 0;
      std::vector<Iv> r = rng.next_below(2) == 0 ? strided_run() : dense_run();
      if (r.empty()) continue;
      if (!run) r.erase(r.begin() + 1, r.end());
      const std::uint64_t sid = 1 + rng.next_below(500);
      // Erases are rarer while growing, then dominate so coverage drains.
      const std::uint64_t erase_odds = op < 2500 ? 10 : 60;
      const std::uint64_t kind = rng.next_below(100);
      if (kind < erase_odds) {
        if (rng.next_below(20) == 0) {  // a wide erase across many leaves
          const std::uint64_t lo = rng.next_below(kSpan);
          r.assign(1, Iv{lo, std::min(kSpan - 1, lo + rng.next_below(8192))});
        }
        if (run) {
          t.erase_run(r.data(), r.size());
        } else {
          t.erase_range(r[0].lo, r[0].hi);
        }
        for (const Iv& v : r) m.erase(v);
      } else if (kind < 50) {
        std::vector<Seg> got, want;
        auto cb = [&](std::uint64_t lo, std::uint64_t hi, const Accessor& a) {
          got.push_back({lo, hi, a.sid});
        };
        if (run) {
          t.query_run(r.data(), r.size(), cb);
        } else {
          t.query(r[0].lo, r[0].hi, cb);
        }
        for (const Iv& v : r) {  // expected: maximal same-owner stretches
          for (auto b = v.lo; b <= v.hi; ++b) {
            if (m.owner[b] == 0) continue;
            if (!want.empty() && want.back().hi + 1 == b &&
                want.back().sid == m.owner[b]) {
              ++want.back().hi;
            } else {
              want.push_back({b, b, m.owner[b]});
            }
          }
        }
        // Stored segments may split a same-owner stretch; compare bytes.
        std::vector<Seg> got_bytes, want_bytes;
        for (const Seg& g : got) {
          for (auto b = g.lo; b <= g.hi; ++b) got_bytes.push_back({b, b, g.sid});
        }
        for (const Seg& w : want) {
          for (auto b = w.lo; b <= w.hi; ++b) want_bytes.push_back({b, b, w.sid});
        }
        ASSERT_EQ(got_bytes, want_bytes) << "seed=" << seed << " op=" << op;
      } else if (kind < 75) {
        if (run) {
          t.insert_writer_run(r.data(), r.size(), acc(sid),
                              [](auto, auto, const auto&) {});
        } else {
          t.insert_writer(r[0].lo, r[0].hi, acc(sid),
                          [](auto, auto, const auto&) {});
        }
        for (const Iv& v : r) m.write(v, sid);
      } else {
        if (run) {
          t.insert_reader_run(r.data(), r.size(), acc(sid), resolve_by_sid);
        } else {
          t.insert_reader(r[0].lo, r[0].hi, acc(sid), resolve_by_sid);
        }
        for (const Iv& v : r) m.read(v, sid);
      }
      peak = std::max(peak, t.size());
      if (op % 250 == 0) {
        ASSERT_TRUE(t.check_invariants()) << "seed=" << seed << " op=" << op;
        ASSERT_TRUE(same_bytes(t, m)) << "seed=" << seed << " op=" << op;
      }
    }
    ASSERT_GT(peak, 32u * 32u) << "seed=" << seed;  // >= 3 levels reached
    ASSERT_TRUE(t.check_invariants()) << "seed=" << seed;
    ASSERT_TRUE(same_bytes(t, m)) << "seed=" << seed;
    // Shrink to a single leaf's worth: the root chain collapses.
    const Iv keep_out[] = {{0, kSpan / 2 - 1}, {kSpan / 2 + 64, kSpan + 63}};
    t.erase_run(keep_out, 2);
    for (const Iv& v : keep_out) m.erase(v);
    ASSERT_LE(t.size(), 64u);
    ASSERT_TRUE(t.check_invariants()) << "seed=" << seed;
    ASSERT_TRUE(same_bytes(t, m)) << "seed=" << seed;
    t.erase_range(0, kSpan + 63);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.live_accessors(), 0u);
    EXPECT_TRUE(t.check_invariants());
  }
}
