#pragma once

// Non-overlapping interval store (the STINT access-history structure).
//
// Stores disjoint, inclusive byte intervals [lo, hi], each owned by one
// accessor (a strand's reachability label + id).  Three mutation flavors
// match the three roles a store plays in PINT:
//
//  * insert_writer  - "last writer" semantics: every overlapped segment is
//    reported to a callback (race check), then the new accessor replaces the
//    overlap exactly; partially-overlapped old intervals are truncated, e.g.
//    {[1,4]:u, [6,10]:v} + write [3,7]:w  =>  {[1,2]:u, [3,7]:w, [8,10]:v}.
//  * insert_reader  - "relevant reader" semantics: each overlapped segment
//    keeps either the previous or the new accessor, decided by a resolver
//    (series => new; parallel => left/right-most by English order); gaps
//    inside [lo, hi] always take the new accessor.
//  * erase_range    - clears [lo, hi] (stack-frame clearing at spawned
//    function return, and freed heap ranges; paper §III-F).
//
// Layout (DESIGN.md §2.3; the class keeps the paper's treap name): a B+-tree
// keyed by `lo` whose doubly linked leaves hold up to kCap entries in
// parallel lo[]/hi[]/handle[] arrays.  No entry straddles a separator, so
// the leaf whose key range holds an address holds every entry covering it.
// Accessors are interned per store with reference counts: an entry costs
// 20 bytes instead of a 48-byte Accessor plus links.
//
// The store is strictly sequential - in PINT each instance is owned by one
// history worker; in STINT everything runs on one thread (paper §III-C).

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "reach/depa.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"

namespace pint::treap {

using addr_t = std::uint64_t;

/// Persistent identity of an interval's accessor. Kept in the store after
/// the transient strand record is recycled (a DePa label is a self-contained
/// value whose frozen path chunks live in the engine's slab arena).
struct Accessor {
  reach::DePaLabel label;
  std::uint64_t sid = 0;  // strand id, for reporting and self-access checks
  const char* tag = nullptr;  // optional task name, surfaced in race reports
  std::uint32_t lsid = 0;     // interned lockset held during the accesses
};

class IntervalTreap {
 public:
  // The arena knob is snapshotted at construction (detectors build their
  // stores in the constructor, before run() re-applies globals) so every
  // chunk's release matches its allocation provenance.  Nothing is
  // allocated until the first insert.
  IntervalTreap() : use_arena_(support::arena_recycle()) {}
  ~IntervalTreap() {
    auto& slabs = support::SlabSource::instance();
    for (Slot* c : chunks_) {
      if (use_arena_) {
        slabs.give(c, sizeof(Slot) * kChunk);
      } else {
        delete[] c;
      }
    }
  }
  IntervalTreap(const IntervalTreap&) = delete;
  IntervalTreap& operator=(const IntervalTreap&) = delete;

  /// Invokes cb(seg_lo, seg_hi, accessor) for every stored segment
  /// overlapping [lo, hi], in address order. Non-mutating.
  template <class F>
  void query(addr_t lo, addr_t hi, F&& cb) const {
    Cursor c;
    query_at(c, lo, hi, cb);
  }

  /// Last-writer insert: cb(seg_lo, seg_hi, prev_accessor) per overlap, then
  /// [lo, hi] is owned by `a`.
  template <class F>
  void insert_writer(addr_t lo, addr_t hi, const Accessor& a, F&& cb) {
    const Piece one{lo, hi, 0, false};
    insert_writer_run(&one, 1, a, cb);
  }

  /// Reader insert: for each overlapped segment, `resolve(prev, a)` returns
  /// true if the NEW accessor wins the segment; gaps take the new accessor.
  /// Adjacent result segments with the same winner are coalesced.
  template <class R>
  void insert_reader(addr_t lo, addr_t hi, const Accessor& a, R&& resolve) {
    const Piece one{lo, hi, 0, false};
    insert_reader_run(&one, 1, a, resolve);
  }

  /// Removes all coverage of [lo, hi], truncating boundary intervals.
  void erase_range(addr_t lo, addr_t hi) {
    const Piece one{lo, hi, 0, false};
    erase_run(&one, 1);
  }

  // --- Sorted-run forms (DESIGN.md §10) ------------------------------------
  //
  // Each *_run operation takes k intervals sorted by lo, pairwise disjoint
  // (adjacency allowed) and owned by one accessor - a finalized strand
  // record list - and applies the per-interval operation to each in order
  // through one cursor: it stays in the cursor's leaf or steps to the next
  // one when the interval starts there, and descends from the root only
  // otherwise.  Callback/resolver sequences and final contents are those of
  // the per-interval loop by construction; reader coalescing never crosses
  // an interval boundary.

  /// Run query: cb(seg_lo, seg_hi, accessor) for every stored segment part
  /// overlapping each interval, in the per-interval loop's order.
  template <class Iv, class F>
  void query_run(const Iv* iv, std::size_t k, F&& cb) const {
    assert_run_sorted(iv, k);
    Cursor c;
    for (std::size_t j = 0; j < k; ++j) {
      query_at(c, iv[j].lo, iv[j].hi, cb);
    }
  }

  /// Run writer insert: per overlapped segment part cb(lo, hi, prev), then
  /// every interval of the run is owned by `a`.
  template <class Iv, class F>
  void insert_writer_run(const Iv* iv, std::size_t k, const Accessor& a,
                         F&& cb) {
    assert_run_sorted(iv, k);
    if (k == 0) return;
    const std::uint32_t h = pin(a);
    for (std::size_t j = 0; j < k; ++j) {
      const Hole hole = carve(iv[j].lo, iv[j].hi);
      for (const Piece& p : scratch_) cb(p.lo, p.hi, who_[p.h]);
      out_.assign(1, Piece{iv[j].lo, iv[j].hi, h, false});
      fill(hole);
    }
    unpin(h);
  }

  /// Run reader insert: same winner rule as insert_reader per interval.
  template <class Iv, class R>
  void insert_reader_run(const Iv* iv, std::size_t k, const Accessor& a,
                         R&& resolve) {
    assert_run_sorted(iv, k);
    if (k == 0) return;
    const std::uint32_t h = pin(a);
    for (std::size_t j = 0; j < k; ++j) {
      const addr_t lo = iv[j].lo, hi = iv[j].hi;
      const Hole hole = carve(lo, hi);
      out_.clear();
      addr_t cursor = lo;
      bool covered_to_hi = false;
      for (const Piece& p : scratch_) {
        if (p.lo > cursor) push_piece(cursor, p.lo - 1, h);
        push_piece(p.lo, p.hi, resolve(who_[p.h], a) ? h : p.h);
        if (p.hi == hi) {  // avoids the hi+1 wrap when hi == kMaxAddr
          covered_to_hi = true;
          break;
        }
        cursor = p.hi + 1;
      }
      if (!covered_to_hi && cursor <= hi) push_piece(cursor, hi, h);
      fill(hole);
    }
    unpin(h);
  }

  /// Run erase: clears every interval of the run; gap coverage survives.
  template <class Iv>
  void erase_run(const Iv* iv, std::size_t k) {
    assert_run_sorted(iv, k);
    c_.leaf = nullptr;
    for (std::size_t j = 0; j < k && root_ != nullptr; ++j) {
      const Hole hole = carve(iv[j].lo, iv[j].hi, false);
      out_.clear();
      fill(hole);
    }
    close_gap();
    collapse_root();
  }

  bool empty() const { return root_ == nullptr; }
  std::size_t size() const {
    std::size_t n = 0;
    for (const Leaf* l = first_leaf(); l != nullptr; l = l->next) n += l->n;
    return n;
  }
  /// Interned accessors currently referenced by at least one interval.
  std::size_t live_accessors() const { return who_.size() - free_.size(); }
  /// Bytes held for nodes and the accessor pool.
  std::size_t memory_bytes() const {
    return chunks_.size() * kChunk * sizeof(Slot) +
           who_.capacity() * sizeof(Accessor) +
           (refs_.capacity() + free_.capacity()) * sizeof(std::uint32_t);
  }

  /// In-order traversal of all stored intervals: cb(lo, hi, accessor).
  template <class F>
  void for_each(F&& cb) const {
    for (const Leaf* l = first_leaf(); l != nullptr; l = l->next) {
      for (std::uint32_t i = 0; i < l->n; ++i) {
        cb(l->lo[i], l->hi[i], who_[l->h[i]]);
      }
    }
  }

  /// Verifies sorted, disjoint entries inside their leaf's key range,
  /// separators consistent with their children, uniform leaf depth, a leaf
  /// chain matching the in-order traversal, and pool reference counts equal
  /// to the number of live handles.
  bool check_invariants() const {
    std::vector<std::uint32_t> uses(who_.size(), 0);
    const Leaf* last = nullptr;
    if (root_ != nullptr && !check_node(root_, 0, 0, kMaxAddr, &last, &uses)) {
      return false;
    }
    if (last != nullptr && last->next != nullptr) return false;
    std::size_t unused = 0;
    for (std::size_t s = 0; s < who_.size(); ++s) {
      if (refs_[s] != uses[s]) return false;
      unused += uses[s] == 0 ? 1 : 0;
    }
    return unused == free_.size() &&
           (cached_ == kNoSlot || refs_[cached_] > 0);
  }

 private:
  static constexpr std::uint32_t kCap = 32;  // leaf entries / inner children
  static constexpr int kMaxDepth = 16;
  static constexpr std::size_t kChunk = 64;  // node slots per allocation
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);
  static constexpr addr_t kMaxAddr = ~addr_t(0);

  struct NodeHead {
    std::uint32_t n = 0;
    bool leaf = false;
  };
  struct Leaf : NodeHead {
    Leaf* prev = nullptr;
    Leaf* next = nullptr;
    addr_t lo[kCap];
    addr_t hi[kCap];
    std::uint32_t h[kCap];  // accessor pool handle
  };
  struct Inner : NodeHead {
    addr_t key[kCap];  // key[i]: lowest address routed to kid[i] (i >= 1)
    NodeHead* kid[kCap];
  };
  struct alignas(8) Slot {
    unsigned char raw[sizeof(Leaf)];  // make() asserts every node fits
  };
  /// An interval with its owner; `gone` marks a carved entry that left the
  /// store (its accessor reference is dropped after the fill).
  struct Piece {
    addr_t lo, hi;
    std::uint32_t h;
    bool gone;
  };
  /// A root-to-leaf position: the path, the leaf, the leaf's key range
  /// [first, last], and a search hint (entries before `pos` end before the
  /// last key sought, so searches start there).
  struct Cursor {
    struct Level {
      Inner* node;
      std::uint32_t idx;
    };
    Level path[kMaxDepth];
    Leaf* leaf = nullptr;
    addr_t first = 0, last = 0;
    std::uint32_t pos = 0;
  };
  /// Entries [a, b) of the cursor leaf that a carve took out.
  struct Hole {
    std::uint32_t a, b;
  };

  // --- navigation ----------------------------------------------------------

  /// Length of the prefix of the sorted a[0, n) satisfying the monotone
  /// predicate p (branchless binary search).
  template <class P>
  static std::uint32_t prefix(const addr_t* a, std::uint32_t n, P p) {
    if (n == 0) return 0;
    const addr_t* base = a;
    while (n > 1) {
      const std::uint32_t half = n / 2;
      base = p(base[half]) ? base + half : base;
      n -= half;
    }
    return std::uint32_t(base - a) + (p(*base) ? 1 : 0);
  }

  /// First entry at or after `from` ending at or after x (often `from`).
  static std::uint32_t first_reaching(const Leaf* l, std::uint32_t from,
                                      addr_t x) {
    if (from == l->n || l->hi[from] >= x) return from;
    return from + 1 + prefix(l->hi + from + 1, l->n - from - 1,
                             [x](addr_t v) { return v < x; });
  }

  void descend(Cursor& c, addr_t x) const {
    NodeHead* n = root_;
    for (int d = 0; d < height_; ++d) {
      Inner* in = static_cast<Inner*>(n);
      const std::uint32_t i =
          prefix(in->key + 1, in->n - 1, [x](addr_t s) { return s <= x; });
      c.path[d] = {in, i};
      n = in->kid[i];
    }
    c.leaf = static_cast<Leaf*>(n);
    c.pos = 0;
    bound(c);
  }

  /// Recomputes the cursor leaf's key range from its path.
  void bound(Cursor& c) const {
    c.first = 0;
    c.last = kMaxAddr;
    for (int d = 0; d < height_; ++d) {
      const Cursor::Level& v = c.path[d];
      if (v.idx > 0) c.first = v.node->key[v.idx];
      if (v.idx + 1 < v.node->n) c.last = v.node->key[v.idx + 1] - 1;
    }
  }

  /// Moves the cursor to the next leaf in address order; false at the end.
  bool advance(Cursor& c) const {
    int d = height_ - 1;
    while (d >= 0 && c.path[d].idx + 1 == c.path[d].node->n) --d;
    if (d < 0) return false;
    ++c.path[d].idx;
    for (; d + 1 < height_; ++d) {
      c.path[d + 1] = {static_cast<Inner*>(c.path[d].node->kid[c.path[d].idx]),
                       0};
    }
    c.leaf = static_cast<Leaf*>(c.path[d].node->kid[c.path[d].idx]);
    c.pos = 0;
    bound(c);
    return true;
  }

  /// Positions c at the leaf whose key range holds x: stays put, steps one
  /// leaf right, or descends from the root.
  void seek(Cursor& c, addr_t x) const {
    if (c.leaf != nullptr && x >= c.first) {
      if (x <= c.last) return;
      if (advance(c) && x <= c.last) return;
    }
    descend(c, x);
  }

  const Leaf* first_leaf() const {
    const NodeHead* n = root_;
    if (n == nullptr) return nullptr;
    for (int d = 0; d < height_; ++d) n = static_cast<const Inner*>(n)->kid[0];
    return static_cast<const Leaf*>(n);
  }

  template <class F>
  void query_at(Cursor& c, addr_t lo, addr_t hi, F& cb) const {
    if (root_ == nullptr) return;
    seek(c, lo);
    const Leaf* l = c.leaf;
    std::uint32_t i = c.pos = first_reaching(l, c.pos, lo);
    for (;;) {
      for (; i < l->n; ++i) {
        if (l->lo[i] > hi) return;
        cb(l->lo[i] > lo ? l->lo[i] : lo, l->hi[i] < hi ? l->hi[i] : hi,
           who_[l->h[i]]);
      }
      // Entries right of the cursor leaf's range start after c.last.
      if (hi <= c.last || (l = l->next) == nullptr) return;
      i = 0;
    }
  }

  // --- mutation ------------------------------------------------------------

  /// Takes [lo, hi] out of the store, leaving the cursor at the hole where
  /// its new pieces belong.  Overlapped segment parts land in scratch_,
  /// trimmed, in address order; a boundary entry keeps its outside part in
  /// place, and an entry strictly containing [lo, hi] leaves its tail in
  /// rest_ for fill() to re-insert.  An erase (`record` false) has no one
  /// to report to: it drops carved entries' references on the spot.
  Hole carve(addr_t lo, addr_t hi, bool record = true) {
    scratch_.clear();
    rest_.h = kNoSlot;
    if (root_ == nullptr) {
      root_ = make<Leaf>();
      height_ = 0;
    }
    if (c_.leaf != nullptr && lo > c_.last) close_gap();
    seek(c_, lo);
    Leaf* l = c_.leaf;
    std::uint32_t i = first_reaching(l, c_.pos + gap_, lo);
    if (i < l->n && l->lo[i] < lo) {  // entry straddles lo: keep its head
      const addr_t ehi = l->hi[i];
      if (record) {
        scratch_.push_back({lo, ehi < hi ? ehi : hi, l->h[i], false});
      }
      l->hi[i] = lo - 1;
      ++i;
      if (ehi > hi) {
        rest_ = {hi + 1, ehi, l->h[i - 1], false};
        return {i, i};
      }
    }
    const std::uint32_t j = carve_head(l, i, hi, record);
    if (j == l->n && hi > c_.last) carve_beyond(hi, record);
    return {i, j};
  }

  /// Carves the entries of l from index i that start at or before hi; the
  /// last one keeps its part past hi in place.  Returns the end of the run
  /// of entries that left the store.
  std::uint32_t carve_head(Leaf* l, std::uint32_t i, addr_t hi,
                           bool record) {
    for (; i < l->n && l->lo[i] <= hi; ++i) {
      const bool whole = l->hi[i] <= hi;
      if (record) {
        scratch_.push_back({l->lo[i], whole ? l->hi[i] : hi, l->h[i], whole});
      } else if (whole) {
        unref(l->h[i]);
      }
      if (!whole) {
        l->lo[i] = hi + 1;
        break;
      }
    }
    return i;
  }

  /// carve() reached the end of its leaf with [lo, hi] running past the
  /// leaf's key range: carves the head of the following leaves (dropping
  /// the ones it empties), then raises the separator past hi so the pieces
  /// about to land in the cursor leaf do not straddle it.
  void carve_beyond(addr_t hi, bool record) {
    for (Leaf* l = c_.leaf->next; l != nullptr && l->lo[0] <= hi;) {
      const addr_t key = l->lo[0];
      const std::uint32_t j = carve_head(l, 0, hi, record);
      if (j < l->n) {
        shift(l, j, 0, l->n - j);
        l->n -= j;
        break;
      }
      Leaf* next = l->next;
      Cursor t;
      descend(t, key);
      drop_leaf(t);  // only nodes right of c_'s path go: c_ stays valid
      l = next;
    }
    for (int d = height_ - 1; d >= 0; --d) {
      const Cursor::Level& v = c_.path[d];
      if (v.idx + 1 < v.node->n) {
        addr_t& sep = v.node->key[v.idx + 1];
        if (sep <= hi) sep = hi + 1;  // hi < kMaxAddr: a leaf follows
        c_.last = sep - 1;
        return;
      }
    }
    c_.last = kMaxAddr;
  }

  /// Stores out_ (then rest_) in the hole and settles accessor references.
  /// Slots the pieces do not need stay behind as the gap [pos, pos + gap_)
  /// instead of shifting the leaf's tail down: the run's next hole in this
  /// leaf slides only the survivors in between over it, so a sweep moves
  /// each entry once per leaf rather than once per interval.  The gap never
  /// outlives the operation: carve() closes it before leaving the leaf, and
  /// erase_run() and unpin() close it at the end.
  void fill(Hole hole) {
    const std::uint32_t keep = std::uint32_t(out_.size());
    if (rest_.h != kNoSlot) out_.push_back(rest_);
    for (const Piece& p : out_) ++refs_[p.h];
    for (const Piece& p : scratch_) {
      if (p.gone) unref(p.h);
    }
    Leaf* l = c_.leaf;
    if (gap_ != 0) {  // merge the gap into this hole
      shift(l, c_.pos + gap_, c_.pos, hole.a - c_.pos - gap_);
      hole.a -= gap_;
      gap_ = 0;
    }
    const std::uint32_t put = std::uint32_t(out_.size());
    const std::uint32_t room = hole.b - hole.a;
    const std::uint32_t live = l->n - room + put;
    if (live > kCap) {
      spill(l, hole);
      return;
    }
    if (put > room) {
      shift(l, hole.b, hole.a + put, l->n - hole.b);
      l->n = live;
    } else {
      gap_ = room - put;
    }
    for (std::uint32_t x = 0; x < put; ++x) set(l, hole.a + x, out_[x]);
    c_.pos = hole.a + put;
    if (live == 0) {
      gap_ = 0;
      drop_leaf(c_);
    } else if (keep < put) {
      close_gap();  // rest_ may overlap the next interval: keep it in view
      c_.pos = hole.a + keep;
    }
  }

  void close_gap() {
    if (gap_ == 0) return;
    Leaf* l = c_.leaf;
    shift(l, c_.pos + gap_, c_.pos, l->n - c_.pos - gap_);
    l->n -= gap_;
    gap_ = 0;
  }

  /// fill() overflow: spreads the leaf's new contents evenly over as many
  /// leaves as needed, linking each new leaf in after its left neighbour.
  void spill(Leaf* l, Hole hole) {
    buf_.clear();
    auto entry = [l](std::uint32_t x) {
      return Piece{l->lo[x], l->hi[x], l->h[x], false};
    };
    for (std::uint32_t x = 0; x < hole.a; ++x) buf_.push_back(entry(x));
    buf_.insert(buf_.end(), out_.begin(), out_.end());
    for (std::uint32_t x = hole.b; x < l->n; ++x) buf_.push_back(entry(x));
    const std::size_t m = buf_.size(), parts = (m + kCap - 1) / kCap;
    for (std::size_t part = 0, from = 0; part < parts; ++part) {
      const std::size_t to = m * (part + 1) / parts;
      Leaf* dst = l;
      if (part > 0) {
        dst = make<Leaf>();
        dst->prev = l;
        dst->next = l->next;
        if (l->next != nullptr) l->next->prev = dst;
        l->next = dst;
        insert_kid(c_, height_ - 1, buf_[from].lo, dst);
        descend(c_, buf_[from].lo);
      }
      for (std::size_t x = from; x < to; ++x) {
        set(dst, std::uint32_t(x - from), buf_[x]);
      }
      dst->n = std::uint32_t(to - from);
      l = dst;
      from = to;
    }
    c_.leaf = nullptr;  // splits reshape paths: the next seek descends
  }

  /// Inserts (key, kid) right after path[d]'s child, splitting full nodes
  /// upward; d < 0 grows a new root.
  void insert_kid(Cursor& c, int d, addr_t key, NodeHead* kid) {
    if (d < 0) {
      PINT_ASSERT(height_ + 1 < kMaxDepth);
      Inner* r = make<Inner>();
      r->n = 2;
      r->kid[0] = root_;
      r->kid[1] = kid;
      r->key[1] = key;
      root_ = r;
      ++height_;
      return;
    }
    Inner* x = c.path[d].node;
    std::uint32_t at = c.path[d].idx + 1;
    if (x->n == kCap) {
      constexpr std::uint32_t half = kCap / 2;
      Inner* y = make<Inner>();
      std::memcpy(y->key, x->key + half, (kCap - half) * sizeof(addr_t));
      std::memcpy(y->kid, x->kid + half, (kCap - half) * sizeof(NodeHead*));
      y->n = kCap - half;
      x->n = half;
      insert_kid(c, d - 1, y->key[0], y);
      if (at > half) {
        x = y;
        at -= half;
      }
    }
    std::memmove(x->key + at + 1, x->key + at, (x->n - at) * sizeof(addr_t));
    std::memmove(x->kid + at + 1, x->kid + at, (x->n - at) * sizeof(NodeHead*));
    x->key[at] = key;
    x->kid[at] = kid;
    ++x->n;
  }

  /// Unlinks and frees the (empty) cursor leaf and every ancestor it leaves
  /// empty; a neighbour absorbs its key range.  Invalidates the cursor.
  void drop_leaf(Cursor& c) {
    Leaf* l = c.leaf;
    if (l->prev != nullptr) l->prev->next = l->next;
    if (l->next != nullptr) l->next->prev = l->prev;
    release(l);
    c.leaf = nullptr;
    for (int d = height_ - 1; d >= 0; --d) {
      Inner* x = c.path[d].node;
      if (x->n > 1) {
        const std::uint32_t i = c.path[d].idx;
        const std::uint32_t k = i == 0 ? 1 : i;  // separator that goes
        std::memmove(x->key + k, x->key + k + 1,
                     (x->n - k - 1) * sizeof(addr_t));
        std::memmove(x->kid + i, x->kid + i + 1,
                     (x->n - i - 1) * sizeof(NodeHead*));
        --x->n;
        return;
      }
      release(x);
    }
    root_ = nullptr;
    height_ = 0;
  }

  void collapse_root() {
    while (height_ > 0 && root_->n == 1) {
      NodeHead* only = static_cast<Inner*>(root_)->kid[0];
      release(root_);
      root_ = only;
      --height_;
    }
  }

  static void shift(Leaf* l, std::uint32_t from, std::uint32_t to,
                    std::uint32_t count) {
    if (count == 0) return;
    std::memmove(l->lo + to, l->lo + from, count * sizeof(addr_t));
    std::memmove(l->hi + to, l->hi + from, count * sizeof(addr_t));
    std::memmove(l->h + to, l->h + from, count * sizeof(std::uint32_t));
  }
  static void set(Leaf* l, std::uint32_t i, const Piece& p) {
    l->lo[i] = p.lo;
    l->hi[i] = p.hi;
    l->h[i] = p.h;
  }

  /// Reader cover builder: adjacent same-winner pieces coalesce (out_ holds
  /// one interval's pieces only, so this never crosses an interval).
  void push_piece(addr_t lo, addr_t hi, std::uint32_t h) {
    if (!out_.empty() && out_.back().hi + 1 == lo &&
        who_[out_.back().h].sid == who_[h].sid) {
      out_.back().hi = hi;
    } else {
      out_.push_back({lo, hi, h, false});
    }
  }

  template <class Iv>
  static void assert_run_sorted([[maybe_unused]] const Iv* iv,
                                [[maybe_unused]] std::size_t k) {
#ifndef NDEBUG
    for (std::size_t j = 0; j < k; ++j) {
      PINT_ASSERT(iv[j].lo <= iv[j].hi);
      if (j > 0) PINT_ASSERT(iv[j - 1].hi < iv[j].lo);
    }
#endif
  }

  // --- accessor pool -------------------------------------------------------

  static bool same(const Accessor& x, const Accessor& y) {
    return x.sid == y.sid && x.lsid == y.lsid && x.tag == y.tag &&
           x.label.tail == y.label.tail && x.label.frozen == y.label.frozen &&
           x.label.bits == y.label.bits && x.label.live == y.label.live;
  }

  /// Starts an operation for `a`: interns it (the one-entry cache keyed on
  /// sid covers a strand's consecutive operations) and holds a reference
  /// until unpin(), so the slot survives the carve of its own intervals.
  /// Each operation's first interval descends from the root.
  std::uint32_t pin(const Accessor& a) {
    c_.leaf = nullptr;
    if (cached_ == kNoSlot || !same(who_[cached_], a)) {
      if (free_.empty()) {
        cached_ = std::uint32_t(who_.size());
        who_.push_back(a);
        refs_.push_back(0);
      } else {
        cached_ = free_.back();
        free_.pop_back();
        who_[cached_] = a;
      }
    }
    ++refs_[cached_];
    return cached_;
  }
  void unpin(std::uint32_t h) {
    unref(h);
    close_gap();
    collapse_root();
  }
  void unref(std::uint32_t h) {
    if (--refs_[h] != 0) return;
    free_.push_back(h);
    if (h == cached_) cached_ = kNoSlot;
  }

  // --- node memory ---------------------------------------------------------

  /// Node slots are carved from chunks recycled raw through the
  /// process-wide SlabSource when the arena knob was on at construction
  /// (DESIGN.md §13); the trivial destructors make the wholesale give-back
  /// in ~IntervalTreap safe.
  template <class T>
  T* make() {
    static_assert(std::is_trivially_destructible_v<T> &&
                  sizeof(T) <= sizeof(Slot));
    void* s;
    if (!spare_.empty()) {
      s = spare_.back();
      spare_.pop_back();
    } else {
      if (used_ == kChunk) {
        const std::size_t bytes = sizeof(Slot) * kChunk;
        if (use_arena_) {
          chunks_.push_back(static_cast<Slot*>(
              support::SlabSource::instance().take(bytes)));
        } else {
          chunks_.push_back(new Slot[kChunk]);
        }
        used_ = 0;
      }
      s = chunks_.back() + used_++;
    }
    T* n = ::new (s) T();
    n->leaf = std::is_same_v<T, Leaf>;
    return n;
  }
  void release(NodeHead* n) { spare_.push_back(n); }

  bool check_node(const NodeHead* n, int depth, addr_t first, addr_t last,
                  const Leaf** prev, std::vector<std::uint32_t>* uses) const {
    if (n->n == 0 || n->n > kCap || n->leaf != (depth == height_)) return false;
    if (!n->leaf) {
      const Inner* x = static_cast<const Inner*>(n);
      for (std::uint32_t i = 0; i < x->n; ++i) {
        if (i > 0 && (x->key[i] <= first || x->key[i] > last)) return false;
        const addr_t f = i > 0 ? x->key[i] : first;
        const addr_t l = i + 1 < x->n ? x->key[i + 1] - 1 : last;
        if (f > l || !check_node(x->kid[i], depth + 1, f, l, prev, uses)) {
          return false;
        }
      }
      return true;
    }
    const Leaf* l = static_cast<const Leaf*>(n);
    if (l->prev != *prev || (*prev != nullptr && (*prev)->next != l)) {
      return false;
    }
    *prev = l;
    for (std::uint32_t i = 0; i < l->n; ++i) {
      if (l->lo[i] > l->hi[i] || l->lo[i] < first || l->hi[i] > last) {
        return false;
      }
      if (i > 0 && l->lo[i] <= l->hi[i - 1]) return false;
      if (l->h[i] >= uses->size()) return false;
      ++(*uses)[l->h[i]];
    }
    return true;
  }

  NodeHead* root_ = nullptr;
  int height_ = 0;  // inner levels above the leaves
  bool use_arena_ = false;
  std::vector<Slot*> chunks_;
  std::size_t used_ = kChunk;
  std::vector<NodeHead*> spare_;
  Cursor c_;  // mutation cursor
  std::uint32_t gap_ = 0;  // dead slots at c_.pos in c_.leaf (see fill())
  std::vector<Piece> scratch_, out_, buf_;
  Piece rest_{};  // tail split off by carve(); h == kNoSlot when none
  std::vector<Accessor> who_;  // accessor pool
  std::vector<std::uint32_t> refs_, free_;
  std::uint32_t cached_ = kNoSlot;
};

}  // namespace pint::treap
