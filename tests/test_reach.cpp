// Tests for DePa reachability: hand-built scenarios, the label-encoding
// regimes (paths long enough to freeze chunks, wide fans, equal-label
// lockset splits), and a property test of relation() against
// a transitive-closure oracle plus the serial (English) execution order on
// random series-parallel DAGs.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "reach/depa.hpp"
#include "support/rng.hpp"

using namespace pint;
using reach::DePaEngine;
using reach::DePaLabel;

TEST(Reach, SpawnMakesChildAndContinuationParallel) {
  DePaEngine e;
  DePaLabel u = e.root_label();
  DePaLabel sync;
  auto s = e.on_spawn(u, &sync);
  EXPECT_TRUE(e.precedes(u, s.child));
  EXPECT_TRUE(e.precedes(u, s.cont));
  EXPECT_TRUE(e.parallel(s.child, s.cont));
  EXPECT_TRUE(e.left_of(s.child, s.cont));
  EXPECT_FALSE(e.precedes(s.child, s.cont));
  EXPECT_FALSE(e.precedes(s.cont, s.child));
  EXPECT_TRUE(e.precedes(s.child, sync));
  EXPECT_TRUE(e.precedes(s.cont, sync));
  EXPECT_FALSE(e.precedes(sync, s.child));
}

TEST(Reach, SyncNodeInSeriesWithWholeBlock) {
  DePaEngine e;
  DePaLabel u = e.root_label();
  DePaLabel sync;
  auto s1 = e.on_spawn(u, &sync);
  auto s2 = e.on_spawn(s1.cont, &sync);  // second spawn, same block
  // Both children and both continuations precede the sync node.
  EXPECT_TRUE(e.precedes(s1.child, sync));
  EXPECT_TRUE(e.precedes(s2.child, sync));
  EXPECT_TRUE(e.precedes(s1.cont, sync));
  EXPECT_TRUE(e.precedes(s2.cont, sync));
  // The two children are parallel siblings.
  EXPECT_TRUE(e.parallel(s1.child, s2.child));
  // First child is left of second child.
  EXPECT_TRUE(e.left_of(s1.child, s2.child));
  EXPECT_FALSE(e.left_of(s2.child, s1.child));
  // Continuation 1 precedes child 2 (spawned later in program order).
  EXPECT_TRUE(e.precedes(s1.cont, s2.child));
}

TEST(Reach, NestedSpawnRegionsAreParallel) {
  DePaEngine e;
  DePaLabel u = e.root_label();
  DePaLabel outer_sync;
  auto s1 = e.on_spawn(u, &outer_sync);
  // The child spawns its own subtree.
  DePaLabel inner_sync;
  auto c1 = e.on_spawn(s1.child, &inner_sync);
  // Everything in the child's subtree is parallel to the continuation.
  EXPECT_TRUE(e.parallel(c1.child, s1.cont));
  EXPECT_TRUE(e.parallel(c1.cont, s1.cont));
  EXPECT_TRUE(e.parallel(inner_sync, s1.cont));
  // ...but in series with the outer sync.
  EXPECT_TRUE(e.precedes(c1.child, outer_sync));
  EXPECT_TRUE(e.precedes(inner_sync, outer_sync));
}

TEST(Reach, SequentialBlocksAreInSeries) {
  DePaEngine e;
  DePaLabel u = e.root_label();
  DePaLabel sync1;
  auto s1 = e.on_spawn(u, &sync1);
  // After the first block's sync, a second block begins at sync1.
  DePaLabel sync2;
  auto s2 = e.on_spawn(sync1, &sync2);
  EXPECT_TRUE(e.precedes(s1.child, s2.child));
  EXPECT_TRUE(e.precedes(s1.cont, s2.cont));
  EXPECT_TRUE(e.precedes(sync1, sync2));
}

TEST(Reach, EqualLabelsOrderedByNeither) {
  // The lock-segmentation contract: a lock event splits a strand into
  // segments with THE SAME label and a fresh sid; such segments must be
  // ordered by neither relation bit, so they can never race with each
  // other and never perturb reader retention.
  DePaEngine e;
  DePaLabel u = e.root_label();
  DePaLabel sync;
  const auto s = e.on_spawn(u, &sync);
  const DePaLabel copy = s.child;  // a split segment's byte-identical label
  const reach::Relation r = e.relation(s.child, copy);
  EXPECT_FALSE(r.eng);
  EXPECT_FALSE(r.heb);
  EXPECT_FALSE(e.parallel(s.child, copy));
  EXPECT_FALSE(e.precedes(s.child, copy));
}

TEST(Reach, DeepChainCrossesWordBoundaries) {
  // 200 spawns deep: paths reach ~400 bits (7 words), exercising the chunk
  // freeze/shared-suffix machinery several times over.  Every prefix strand
  // must precede every deeper one, and each child stays parallel to every
  // later continuation's child.
  DePaEngine e;
  std::vector<DePaLabel> chain;  // continuation spine
  std::vector<DePaLabel> kids;   // one child per level
  std::vector<DePaLabel> syncs;
  chain.push_back(e.root_label());
  for (int i = 0; i < 200; ++i) {
    syncs.emplace_back();
    const auto s = e.on_spawn(chain.back(), &syncs.back());
    kids.push_back(s.child);
    chain.push_back(s.cont);
  }
  for (std::size_t i = 0; i < chain.size(); i += 37) {
    for (std::size_t j = i + 1; j < chain.size(); j += 23) {
      EXPECT_TRUE(e.precedes(chain[i], chain[j])) << i << "," << j;
      EXPECT_FALSE(e.precedes(chain[j], chain[i])) << i << "," << j;
    }
  }
  // None of the per-level sync nodes is joined back into the spine, so every
  // child is parallel to (and English-left of) everything spawned after it.
  for (std::size_t i = 0; i < kids.size(); i += 29) {
    for (std::size_t j = i + 1; j < kids.size(); j += 31) {
      EXPECT_TRUE(e.parallel(kids[i], kids[j])) << i << "," << j;
      EXPECT_TRUE(e.left_of(kids[i], kids[j])) << i << "," << j;
      EXPECT_TRUE(e.parallel(kids[i], chain[j])) << i << "," << j;
    }
    EXPECT_TRUE(e.precedes(kids[i], syncs[i])) << i;
    EXPECT_TRUE(e.precedes(chain[i + 1], syncs[i])) << i;
  }
}

TEST(Reach, WideFanSharesOneBlock) {
  // 100 spawns in ONE sync block: all children pairwise parallel, in
  // spawn order under left_of, all preceding the single sync node.
  DePaEngine e;
  DePaLabel cur = e.root_label();
  DePaLabel sync;
  std::vector<DePaLabel> kids;
  for (int i = 0; i < 100; ++i) {
    const auto s = e.on_spawn(cur, &sync);
    kids.push_back(s.child);
    cur = s.cont;
  }
  for (std::size_t i = 0; i < kids.size(); i += 13) {
    for (std::size_t j = i + 1; j < kids.size(); j += 17) {
      EXPECT_TRUE(e.parallel(kids[i], kids[j])) << i << "," << j;
      EXPECT_TRUE(e.left_of(kids[i], kids[j])) << i << "," << j;
      EXPECT_FALSE(e.left_of(kids[j], kids[i])) << i << "," << j;
    }
    EXPECT_TRUE(e.precedes(kids[i], sync));
    EXPECT_FALSE(e.precedes(sync, kids[i]));
  }
  EXPECT_TRUE(e.precedes(cur, sync));
}

TEST(Reach, ChunkArenaFreezesLongPaths) {
  DePaEngine e;
  EXPECT_EQ(e.chunks_minted(), 0u);
  auto cur = e.root_label();
  for (int i = 0; i < 40; ++i) {  // 40 symbols = 80 bits > one word
    DePaLabel sync;
    cur = e.on_spawn(cur, &sync).cont;
  }
  EXPECT_GT(e.chunks_minted(), 0u);
  EXPECT_GT(cur.bits, 64u);
  // The frozen prefix plus tail must reproduce order against a shallow label.
  const auto root = e.root_label();
  EXPECT_TRUE(e.precedes(root, cur));
  EXPECT_FALSE(e.precedes(cur, root));
}

// ---------------------------------------------------------------------------
// Property test: random SP DAGs vs a transitive-closure oracle.
// ---------------------------------------------------------------------------

namespace {

/// One random fork-join DAG generator configuration.  `narrow` blocks spawn
/// 1-3 children to a fixed depth; `wide` adds occasional 6-spawn fans and
/// deepens every third seed, so sibling fans and deep tails both occur.
struct DagGen {
  const char* name;
  bool wide;
  std::uint64_t seed;
  int max_depth() const { return wide && seed % 3 == 0 ? 5 : 4; }
};

void PrintTo(const DagGen& g, std::ostream* os) {
  *os << g.name << " seed " << g.seed;
}

/// Builds a random fork-join computation using the engine while recording
/// every strand, the ground-truth precedence edges (the oracle relation is
/// their transitive closure), and each strand's position in the serial
/// depth-first execution - the English order.
struct SpBuilder {
  DePaEngine e;
  std::vector<DePaLabel> strands;
  std::vector<int> english;  // serial execution rank per strand
  std::vector<std::pair<int, int>> edges;
  Xoshiro256 rng;
  DagGen gen;
  int clock = 0;

  explicit SpBuilder(const DagGen& g) : rng(g.seed), gen(g) {}

  /// Registers a strand at the moment it starts executing serially.
  int add(const DePaLabel& l) {
    strands.push_back(l);
    english.push_back(clock++);
    return int(strands.size()) - 1;
  }

  /// Simulates executing a function whose current strand is `cur` (index).
  /// Returns the index of its final strand.
  int run_function(int cur, int depth) {
    const int blocks = 1 + int(rng.next_below(2));
    for (int b = 0; b < blocks; ++b) {
      const bool force = depth == 0 && b == 0;  // at least one spawn overall
      if (!force && (depth >= gen.max_depth() || rng.next_below(100) < 30)) {
        continue;
      }
      const int nspawn = gen.wide && rng.next_below(100) < 10
                             ? 6
                             : 1 + int(rng.next_below(3));
      DePaLabel sync;
      std::vector<int> block_tails;
      for (int s = 0; s < nspawn; ++s) {
        auto labels = e.on_spawn(strands[std::size_t(cur)], &sync);
        // Serially the child runs to completion before the continuation.
        const int child = add(labels.child);
        block_tails.push_back(run_function(child, depth + 1));
        const int cont = add(labels.cont);
        edges.push_back({cur, child});
        edges.push_back({cur, cont});
        cur = cont;
      }
      const int j = add(sync);
      edges.push_back({cur, j});
      for (int t : block_tails) edges.push_back({t, j});
      cur = j;
    }
    return cur;
  }
};

std::vector<DagGen> dag_cases() {
  std::vector<DagGen> v;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    v.push_back({"narrow", false, seed});
  }
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    v.push_back({"wide", true, seed});
  }
  return v;
}

}  // namespace

class ReachClosure : public ::testing::TestWithParam<DagGen> {};

// Both relation() bits are pinned for every ordered pair: eng is the
// English (serial execution) order, and
// heb agrees with it exactly on the pairs the closure orders - so series
// pairs are {1,1} or {0,0} and parallel pairs have eng != heb.
TEST_P(ReachClosure, RelationMatchesClosureAndEnglishOrder) {
  SpBuilder b(GetParam());
  const int root = b.add(b.e.root_label());
  b.run_function(root, 0);

  const std::size_t n = b.strands.size();
  ASSERT_GE(n, 2u);
  ASSERT_LT(n, 4000u) << "generator config drifted; closure would crawl";
  // Floyd-Warshall-style closure on a bit matrix.
  std::vector<std::vector<char>> closure(n, std::vector<char>(n, 0));
  for (auto [u, v] : b.edges) closure[std::size_t(u)][std::size_t(v)] = 1;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!closure[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (closure[k][j]) closure[i][j] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const bool eng = b.english[i] < b.english[j];
      const bool series = closure[i][j] || closure[j][i];
      const bool heb = series ? bool(closure[i][j]) : !eng;
      const reach::Relation r = b.e.relation(b.strands[i], b.strands[j]);
      ASSERT_EQ(r.eng, eng) << "i=" << i << " j=" << j;
      ASSERT_EQ(r.heb, heb) << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDags, ReachClosure, ::testing::ValuesIn(dag_cases()),
    [](const auto& info) {
      return std::string(info.param.name) + "_seed" +
             std::to_string(info.param.seed);
    });
