#pragma once

// DePa graph-encoded reachability for series-parallel DAGs (DESIGN.md §14):
// the happens-before oracle of every detector.
//
// Where the paper's WSP-Order maintains two shared order-maintenance lists -
// and therefore pays group splits and top-level relabels that stall every
// concurrent reader - this engine encodes each strand's position IN ITS OWN
// LABEL: the path from the root of
// the binary fork-join decomposition, as a string of 2-bit symbols packed
// into 64-bit words (a (depth, path-bitstring) pair, after Westrick/Wang/
// Acar's "DePa: Simple, Provably Efficient, and Practical Order Maintenance
// for Task Parallelism").
//
// At a spawn of strand u the three successor vertices get
//
//     child        = u . Child
//     continuation = u . Cont
//     sync node    = u . Join     (created at the block's FIRST spawn, so
//                                  the whole block precedes it)
//
// and for two labels the relation is decided by the LOWEST-indexed symbol
// where the paths diverge:
//
//     Join vs x     ->  the Join side FOLLOWS the other (the whole block
//                       precedes its sync node)
//     Child vs Cont ->  parallel, Child side is English-left
//     proper prefix ->  the prefix precedes the extension (series)
//     equal labels  ->  ordered by NEITHER (same-label lockset segments)
//
// Symbols are appended at the tail word of the label; when a word fills it
// is frozen into an immutable, reverse-linked PathChunk drawn from the PR 8
// slab arena.  Chunks below a fork are SHARED by every descendant label, so
// (a) a label costs O(1) amortized space per spawn and (b) relation() can
// stop its word-compare loop the moment both sides reach the same chunk
// object - everything below the fork is identical by construction.
//
// What this buys over an order-maintenance list, structurally:
//   * on_spawn touches no shared mutable state (one spinlocked slab bump
//     every 32 symbols of depth is the only cross-thread contact),
//   * relation() is a pure word-compare over immutable memory - no seqlock
//     windows, no retries, no fences - safe and wait-free from any lane,
//     and safe concurrently with on_spawn on the core workers, and cheap
//     enough that no verdict cache sits in front of it.
//
// Labels are immutable once published and outlive the strand records that
// carry them (history treaps retain labels after strand recycling).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/spinlock.hpp"

namespace pint::reach {

/// Both order verdicts for an ordered label pair (u, v).  One Relation
/// answers every predicate the history lanes ask: series (eng && heb),
/// parallel (eng != heb), and English-order left_of (eng) - and because the
/// two orders are strict total orders over distinct labels, the reversed
/// pair is just the negation of both bits.  Equal labels are ordered by
/// NEITHER ({false, false}), which makes same-label lockset segments inert.
struct Relation {
  bool eng = false;  // u before v in the English order
  bool heb = false;  // u before v in the Hebrew order
};

/// One frozen 64-bit word of a label's path, reverse-linked toward the root.
/// Immutable after publication; allocated from the engine's slab arena and
/// shared by every label that extends the path below it.
struct DePaPathChunk {
  const DePaPathChunk* prev;  // word `index - 1`, null when index == 0
  std::uint64_t word;         // path bits [64*index, 64*index + 64)
  std::uint32_t index;        // word position in the path, 0-based
};

/// A strand's path in the fork tree.  `frozen` holds words [0, index] of the
/// path; `tail` holds the remaining bits [64*(index+1), bits) - always fewer
/// than 64 of them, so appending a 2-bit symbol is one OR plus, every 32nd
/// append per branch, one chunk freeze.  Value-semantic (24 bytes), immutable
/// once published, and meaningful independent of any engine state: two labels
/// can be compared with nothing but their own words.
struct DePaLabel {
  std::uint64_t tail = 0;
  const DePaPathChunk* frozen = nullptr;
  std::uint32_t bits = 0;   // total path length in bits (2 per symbol)
  std::uint32_t live = 0;   // 0 = default-constructed/invalid (root has bits=0)
  bool valid() const { return live != 0; }
};

/// The DePa (graph-encoded) happens-before engine.
class DePaEngine {
 public:
  DePaEngine() = default;
  DePaEngine(const DePaEngine&) = delete;
  DePaEngine& operator=(const DePaEngine&) = delete;

  ~DePaEngine() {
    for (void* s : slabs_) support::SlabSource::instance().give(s, kSlabBytes);
  }

  /// Label of the computation's initial strand: the empty path.
  DePaLabel root_label() {
    DePaLabel l;
    l.live = 1;
    return l;
  }

  struct SpawnLabels {
    DePaLabel child;  // first strand of the spawned function
    DePaLabel cont;   // continuation strand of the parent
  };

  /// Called when strand `u` executes a spawn.  O(1): extends u's path by one
  /// symbol per successor; no shared structure is read or written unless a
  /// tail word happens to fill (then one spinlocked slab bump).  If
  /// `*sync_node` is invalid this spawn opens a new sync block and the sync
  /// node's label - u.Join - is created and stored there; every strand of
  /// the block extends u by Child/Cont strings that diverge from Join at the
  /// same symbol, which is exactly what makes the block precede its sync.
  SpawnLabels on_spawn(const DePaLabel& u, DePaLabel* sync_node) {
    SpawnLabels out;
    out.child = append(u, kChild);
    out.cont = append(u, kCont);
    if (!sync_node->valid()) *sync_node = append(u, kJoin);
    return out;
  }

  /// Both order verdicts for (u, v).  Wait-free: reads only the two labels'
  /// immutable words.
  static Relation relation(const DePaLabel& u, const DePaLabel& v);

  /// u ~> v : is u in series with (an ancestor of) v?
  static bool precedes(const DePaLabel& u, const DePaLabel& v) {
    const Relation r = relation(u, v);
    return r.eng && r.heb;
  }

  /// u || v : logically parallel (neither reaches the other).
  static bool parallel(const DePaLabel& u, const DePaLabel& v) {
    const Relation r = relation(u, v);
    return r.eng != r.heb;
  }

  /// For two *parallel* strands: is u left of v in the left-to-right
  /// depth-first execution order? (English-order comparison.)
  static bool left_of(const DePaLabel& u, const DePaLabel& v) {
    return relation(u, v).eng;
  }

  /// Total frozen chunks minted (test/stats visibility).
  std::uint64_t chunks_minted() const {
    LockGuard<Spinlock> g(mu_);
    return chunks_minted_;
  }

 private:
  // 2-bit path symbols.  0b00 is reserved as "no symbol" so a masked-out
  // word region can never alias a real symbol.
  static constexpr std::uint64_t kChild = 0b01;  // spawned function
  static constexpr std::uint64_t kCont = 0b10;   // parent's continuation
  static constexpr std::uint64_t kJoin = 0b11;   // the block's sync node

  static std::uint32_t frozen_words(const DePaLabel& l) {
    return l.frozen == nullptr ? 0 : l.frozen->index + 1;
  }

  /// u extended by one symbol.  The tail has room for at most 31 symbols;
  /// the 32nd fills the word, which is frozen into a shared chunk.
  DePaLabel append(const DePaLabel& u, std::uint64_t sym) {
    PINT_ASSERT(u.valid());
    const std::uint32_t tail_len = u.bits - 64 * frozen_words(u);
    DePaLabel out = u;
    out.live = 1;
    out.tail = u.tail | (sym << tail_len);
    out.bits = u.bits + 2;
    if (tail_len == 62) {
      out.frozen = new_chunk(u.frozen, out.tail, frozen_words(u));
      out.tail = 0;
    }
    return out;
  }

  const DePaPathChunk* new_chunk(const DePaPathChunk* prev, std::uint64_t word,
                                 std::uint32_t index) {
    LockGuard<Spinlock> g(mu_);
    if (slab_used_ == kChunksPerSlab) {
      slabs_.push_back(support::SlabSource::instance().take(kSlabBytes));
      slab_used_ = 0;
    }
    auto* base = static_cast<DePaPathChunk*>(slabs_.back());
    ++chunks_minted_;
    return new (base + slab_used_++) DePaPathChunk{prev, word, index};
  }

  /// Word `j` of a label's path, with backward iteration.  `chunk` non-null
  /// means the cursor sits in the frozen chain; null means it sits on the
  /// tail word (from which step_back() re-enters the chain at its head).
  struct Cursor {
    const DePaPathChunk* chunk;
    const DePaPathChunk* head;
    std::uint64_t tail;
    std::uint64_t word() const { return chunk != nullptr ? chunk->word : tail; }
    void step_back() { chunk = chunk != nullptr ? chunk->prev : head; }
  };

  static Cursor cursor_at(const DePaLabel& l, std::uint32_t j) {
    Cursor c{nullptr, l.frozen, l.tail};
    if (j < frozen_words(l)) {
      const DePaPathChunk* p = l.frozen;
      while (p->index != j) p = p->prev;
      c.chunk = p;
    }
    return c;
  }

  static bool label_eq(const DePaLabel& u, const DePaLabel& v) {
    return u.bits == v.bits && u.tail == v.tail && u.frozen == v.frozen;
  }

  static constexpr std::size_t kSlabBytes = std::size_t(64) << 10;
  static constexpr std::size_t kChunksPerSlab = kSlabBytes / sizeof(DePaPathChunk);

  mutable Spinlock mu_;
  std::vector<void*> slabs_;
  std::size_t slab_used_ = kChunksPerSlab;  // force a slab on first freeze
  std::uint64_t chunks_minted_ = 0;
};

inline Relation DePaEngine::relation(const DePaLabel& u, const DePaLabel& v) {
  PINT_ASSERT(u.valid() && v.valid());
  if (label_eq(u, v)) return {};  // same label: strictly ordered by neither

  const std::uint32_t m = u.bits < v.bits ? u.bits : v.bits;
  // Walk the two word sequences top-down over the common prefix length,
  // remembering the LOWEST-indexed differing word.  The loop ends early when
  // both cursors land on the same chunk object: every word below a shared
  // chunk is shared too, so the divergence (if any) was already seen.  Cost
  // is O(words between the fork and min(|u|,|v|)) plus the walk positioning
  // the deeper label's cursor - the paths' divergence, not their length.
  std::uint32_t diff_w = 0;
  std::uint64_t da = 0, db = 0;
  bool differ = false;
  if (m != 0) {
    const std::uint32_t nw = (m + 63) / 64;  // words covering bits [0, m)
    Cursor cu = cursor_at(u, nw - 1);
    Cursor cv = cursor_at(v, nw - 1);
    for (std::uint32_t j = nw; j-- > 0;) {
      if (cu.chunk != nullptr && cu.chunk == cv.chunk) break;
      std::uint64_t a = cu.word();
      std::uint64_t b = cv.word();
      if (j == nw - 1) {
        // Top word: only bits below m belong to the common prefix.
        const std::uint32_t top = m - 64 * (nw - 1);
        if (top < 64) {
          const std::uint64_t mask = (std::uint64_t(1) << top) - 1;
          a &= mask;
          b &= mask;
        }
      }
      if (a != b) {
        diff_w = j;
        da = a;
        db = b;
        differ = true;
      }
      if (j != 0) {
        cu.step_back();
        cv.step_back();
      }
    }
  }

  if (differ) {
    const std::uint32_t bit =
        std::uint32_t(std::countr_zero(da ^ db));  // lowest diff within word
    const std::uint32_t off = bit & ~std::uint32_t(1);  // its symbol's offset
    const std::uint64_t a2 = (da >> off) & 3;
    const std::uint64_t b2 = (db >> off) & 3;
    (void)diff_w;
    // First divergent symbol decides everything (DESIGN.md §14):
    //   u on the Join side -> the entire block (v's side) precedes u.
    //   v on the Join side -> u precedes v.
    //   Child vs Cont      -> parallel; Child is English-first (left),
    //                         Cont is Hebrew-first.
    if (a2 == kJoin) return {false, false};
    if (b2 == kJoin) return {true, true};
    return {a2 == kChild, a2 == kCont};
  }

  // No divergence on the common prefix: one path extends the other, and a
  // vertex precedes every vertex of its own subtree.
  if (u.bits < v.bits) return {true, true};
  if (u.bits > v.bits) return {false, false};
  return {};  // identical content (same vertex reached via copies)
}

}  // namespace pint::reach
