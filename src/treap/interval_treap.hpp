#pragma once

// Non-overlapping interval treap (the STINT access-history structure).
//
// Stores disjoint, inclusive byte intervals [lo, hi], each owned by one
// accessor (a strand's reachability label + id), in a treap keyed by `lo`
// with random heap priorities.  The no-overlap invariant means interval
// endpoints are sorted consistently with the keys, which the query path
// exploits for pruning.
//
// Three mutation flavors match the three roles a treap plays in PINT:
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
// The treap is strictly sequential - in PINT each instance is owned by one
// treap worker; in STINT everything runs on one thread (paper §III-C).

#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "reach/depa.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace pint::treap {

using addr_t = std::uint64_t;

/// Persistent identity of an interval's accessor. Kept in the treap after
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
  // chunk's release matches its allocation provenance.
  explicit IntervalTreap(std::uint64_t seed = 0x51A7EEDULL)
      : rng_(seed), use_arena_(support::arena_recycle()) {}
  ~IntervalTreap() {
    for (Node* c : chunks_) {
      if (use_arena_) {
        support::SlabSource::instance().give(c, sizeof(Node) * kChunk);
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
    query_rec(root_, lo, hi, cb);
  }

  /// Last-writer insert: cb(seg_lo, seg_hi, prev_accessor) per overlap, then
  /// [lo, hi] is owned by `a`.
  template <class F>
  void insert_writer(addr_t lo, addr_t hi, const Accessor& a, F&& cb) {
    Node *left, *right;
    carve(lo, hi, &left, &right);
    for (const Piece& p : scratch_) cb(p.lo, p.hi, p.who);
    root_ = merge(merge(left, make_node(lo, hi, a)), right);
  }

  /// Reader insert: for each overlapped segment, `resolve(prev, a)` returns
  /// true if the NEW accessor wins the segment; gaps take the new accessor.
  /// Adjacent result segments with the same winner are coalesced.
  template <class R>
  void insert_reader(addr_t lo, addr_t hi, const Accessor& a, R&& resolve) {
    Node *left, *right;
    carve(lo, hi, &left, &right);
    root_ = merge(merge(left, reader_cover(lo, hi, a, resolve)), right);
  }

  /// Removes all coverage of [lo, hi], truncating boundary intervals.
  void erase_range(addr_t lo, addr_t hi) {
    Node *left, *right;
    carve(lo, hi, &left, &right);
    root_ = merge(left, right);
  }

  // --- Bulk sorted-run apply (DESIGN.md §10) -------------------------------
  //
  // Each *_run operation takes a run of k intervals - sorted by lo, pairwise
  // non-overlapping (adjacency allowed), all owned by one accessor, exactly
  // the shape of a finalized strand record list - and applies it in ONE
  // left-to-right carve of the run's span instead of k independent root
  // walks: O(k + m + log n) amortized, where m is the stored coverage inside
  // the span.  The per-overlapped-segment callback/resolver sequence is
  // identical to the per-interval loop: stored segments are disjoint and the
  // run intervals are disjoint and sorted, so ordering events by (interval,
  // segment.lo) - the per-interval loop - and by (segment.lo, interval) -
  // the sweep below - yields the same sequence.  Gap coverage between run
  // intervals is preserved with its original owner (possibly re-keyed nodes,
  // never changed contents).

  /// Run query: cb(seg_lo, seg_hi, accessor) for every stored segment part
  /// overlapping each interval, in the per-interval loop's order.
  template <class Iv, class F>
  void query_run(const Iv* iv, std::size_t k, F&& cb) const {
    if (k == 0) return;
    if (k == 1) {
      query(iv[0].lo, iv[0].hi, cb);
      return;
    }
    if (!run_is_dense(iv, k)) {
      // One frontier-pruned in-order walk instead of k root descents.  The
      // emission order is (segment, interval), equal to the per-interval
      // order by the same §10 argument the dense join below relies on.
      assert_run_sorted(iv, k);
      std::size_t j = 0;
      query_multi(root_, iv, k, &j, cb);
      return;
    }
    assert_run_sorted(iv, k);
    std::size_t j = 0;  // first interval that can still overlap a segment
    auto join = [&](addr_t lo, addr_t hi, const Accessor& who) {
      while (j < k && iv[j].hi < lo) ++j;
      for (std::size_t x = j; x < k && iv[x].lo <= hi; ++x) {
        cb(iv[x].lo > lo ? iv[x].lo : lo, iv[x].hi < hi ? iv[x].hi : hi, who);
      }
    };
    query_rec(root_, iv[0].lo, iv[k - 1].hi, join);
  }

  /// Run writer insert: per overlapped segment part cb(lo, hi, prev), then
  /// every interval of the run is owned by `a`.
  template <class Iv, class F>
  void insert_writer_run(const Iv* iv, std::size_t k, const Accessor& a,
                         F&& cb) {
    if (k == 0) return;
    if (k == 1) {
      insert_writer(iv[0].lo, iv[0].hi, a, cb);
      return;
    }
    if (!run_is_dense(iv, k)) {
      // Incremental frontier apply (DESIGN.md §13): each interval's carve
      // works on the shrinking right remainder instead of the whole tree.
      assert_run_sorted(iv, k);
      Node* done = nullptr;
      Node* rest = root_;
      root_ = nullptr;
      for (std::size_t j = 0; j < k; ++j) {
        Node *l, *r;
        carve_tree(&rest, iv[j].lo, iv[j].hi, &l, &r);
        for (const Piece& p : scratch_) cb(p.lo, p.hi, p.who);
        done = merge(done, merge(l, make_node(iv[j].lo, iv[j].hi, a)));
        rest = r;
      }
      root_ = merge(done, rest);
      return;
    }
    assert_run_sorted(iv, k);
    Node *left, *right;
    carve(iv[0].lo, iv[k - 1].hi, &left, &right);
    pieces_out_.clear();
    std::size_t si = 0;
    addr_t seg_lo = scratch_.empty() ? 0 : scratch_[0].lo;
    for (std::size_t j = 0; j < k; ++j) {
      const addr_t lo = iv[j].lo, hi = iv[j].hi;
      sweep_keep_before(lo, &si, &seg_lo);
      while (si < scratch_.size() && seg_lo <= hi) {
        const Piece& p = scratch_[si];
        cb(seg_lo, p.hi < hi ? p.hi : hi, p.who);
        if (p.hi > hi) {  // segment continues into the gap after iv[j]
          seg_lo = hi + 1;
          break;
        }
        ++si;
        if (si < scratch_.size()) seg_lo = scratch_[si].lo;
      }
      pieces_out_.push_back({lo, hi, a});
    }
    PINT_ASSERT(si == scratch_.size());  // span ends at iv[k-1].hi
    root_ = merge(merge(left, build_sorted()), right);
  }

  /// Run reader insert: same winner rule as insert_reader per interval;
  /// winner coalescing never crosses an interval boundary (so the final
  /// contents match k separate insert_reader calls exactly).
  template <class Iv, class R>
  void insert_reader_run(const Iv* iv, std::size_t k, const Accessor& a,
                         R&& resolve) {
    if (k == 0) return;
    if (k == 1) {
      insert_reader(iv[0].lo, iv[0].hi, a, resolve);
      return;
    }
    if (!run_is_dense(iv, k)) {
      // Incremental frontier apply; contents AND shape match k insert_reader
      // calls exactly (same carves, same RNG order, and a treap's shape is a
      // function of its key/priority set alone).
      assert_run_sorted(iv, k);
      Node* done = nullptr;
      Node* rest = root_;
      root_ = nullptr;
      for (std::size_t j = 0; j < k; ++j) {
        Node *l, *r;
        carve_tree(&rest, iv[j].lo, iv[j].hi, &l, &r);
        done = merge(
            done, merge(l, reader_cover(iv[j].lo, iv[j].hi, a, resolve)));
        rest = r;
      }
      root_ = merge(done, rest);
      return;
    }
    assert_run_sorted(iv, k);
    Node *left, *right;
    carve(iv[0].lo, iv[k - 1].hi, &left, &right);
    pieces_out_.clear();
    std::size_t si = 0;
    addr_t seg_lo = scratch_.empty() ? 0 : scratch_[0].lo;
    for (std::size_t j = 0; j < k; ++j) {
      const addr_t lo = iv[j].lo, hi = iv[j].hi;
      sweep_keep_before(lo, &si, &seg_lo);
      const std::size_t mark = pieces_out_.size();
      addr_t cursor = lo;
      bool covered_to_hi = false;
      while (si < scratch_.size() && seg_lo <= hi) {
        const Piece& p = scratch_[si];
        const addr_t phi = p.hi < hi ? p.hi : hi;
        if (seg_lo > cursor) push_piece_from(mark, cursor, seg_lo - 1, a);
        const Accessor& w = resolve(p.who, a) ? a : p.who;
        push_piece_from(mark, seg_lo, phi, w);
        if (phi == hi) covered_to_hi = true;  // avoids the hi+1 wrap below
        if (p.hi > hi) {
          seg_lo = hi + 1;
          break;
        }
        ++si;
        if (si < scratch_.size()) seg_lo = scratch_[si].lo;
        if (covered_to_hi) break;
        cursor = phi + 1;
      }
      if (!covered_to_hi && cursor <= hi) push_piece_from(mark, cursor, hi, a);
    }
    PINT_ASSERT(si == scratch_.size());
    root_ = merge(merge(left, build_sorted()), right);
  }

  /// Run erase: clears every interval of the run; gap coverage survives.
  /// Unlike the writer/reader runs there are no callbacks, so this skips the
  /// carve + Piece materialization entirely: one in-order zipper sweep over
  /// the span's nodes drops covered ones and REUSES each node with a
  /// surviving sub-segment in place (first survivor keeps the node, later
  /// survivors of the same node get fresh ones), rebuilding via the same
  /// right-spine stack as build_sorted().  O(k + m + log n) with no
  /// per-kept-node release/alloc churn.
  template <class Iv>
  void erase_run(const Iv* iv, std::size_t k) {
    if (k == 0) return;
    if (k == 1) {
      erase_range(iv[0].lo, iv[0].hi);
      return;
    }
    if (!run_is_dense(iv, k)) {
      // Incremental frontier erase, mirroring the sparse insert paths.
      assert_run_sorted(iv, k);
      Node* done = nullptr;
      Node* rest = root_;
      root_ = nullptr;
      for (std::size_t j = 0; j < k; ++j) {
        Node *l, *r;
        carve_tree(&rest, iv[j].lo, iv[j].hi, &l, &r);
        done = merge(done, l);
        rest = r;
      }
      root_ = merge(done, rest);
      return;
    }
    assert_run_sorted(iv, k);
    const addr_t span_lo = iv[0].lo;
    const addr_t span_hi = iv[k - 1].hi;
    Node *left, *b, *mid, *right;
    split(root_, span_lo, &left, &b);
    root_ = nullptr;
    split(b, span_hi == kMaxAddr ? kMaxAddr : span_hi + 1, &mid, &right);
    if (span_hi == kMaxAddr && right) {
      // span_hi+1 would wrap; nothing can start after kMaxAddr anyway.
      mid = merge(mid, right);
      right = nullptr;
    }
    spine_.clear();
    std::size_t j = 0;  // sweep frontier into the run
    // Predecessor straddle: truncate in place (key and priority unchanged,
    // so it merges back untouched); the part inside the span joins the
    // sweep as a headless segment whose gap survivors get fresh nodes.
    Node* pred = detach_max(&left);
    if (pred) {
      if (pred->hi >= span_lo) {
        const addr_t tail_hi = pred->hi;
        const Accessor tail_who = pred->who;
        pred->hi = span_lo - 1;  // pred->lo < span_lo by the split
        left = merge(left, pred);
        erase_sweep_segment(span_lo, tail_hi, tail_who, nullptr, iv, k, &j);
      } else {
        left = merge(left, pred);
      }
    }
    erase_sweep(mid, iv, k, &j);
    Node* kept = spine_.empty() ? nullptr : spine_.front();
    root_ = merge(merge(left, kept), right);
  }

  bool empty() const { return root_ == nullptr; }
  std::size_t size() const { return count_rec(root_); }

  /// In-order traversal of all stored intervals: cb(lo, hi, accessor).
  template <class F>
  void for_each(F&& cb) const {
    for_each_rec(root_, cb);
  }

  /// Verifies BST order on lo, the no-overlap invariant, and heap order.
  bool check_invariants() const {
    bool ok = true;
    addr_t prev_hi = 0;
    bool first = true;
    auto visit = [&](addr_t lo, addr_t hi, const Accessor&) {
      if (lo > hi) ok = false;
      if (!first && lo <= prev_hi) ok = false;
      first = false;
      prev_hi = hi;
    };
    for_each_rec(root_, visit);
    return ok && heap_ok(root_);
  }

 private:
  struct Node {
    addr_t lo = 0, hi = 0;
    Accessor who;
    std::uint32_t prio = 0;
    Node* l = nullptr;
    Node* r = nullptr;
  };
  struct Piece {
    addr_t lo, hi;
    Accessor who;
  };

  Node* make_node(addr_t lo, addr_t hi, const Accessor& a) {
    Node* n;
    if (free_) {
      n = free_;
      free_ = n->r;
    } else {
      if (used_ == kChunk) {
        chunks_.push_back(alloc_chunk());
        used_ = 0;
      }
      n = &chunks_.back()[used_++];
    }
    n->lo = lo;
    n->hi = hi;
    n->who = a;
    n->prio = static_cast<std::uint32_t>(rng_.next());
    n->l = n->r = nullptr;
    return n;
  }
  void release(Node* n) {
    n->r = free_;
    free_ = n;
  }

  /// Node chunks are recycled raw through the process-wide SlabSource when
  /// the arena knob was on at construction (DESIGN.md §13); nodes are
  /// placement-constructed into the recycled block, and the trivial
  /// destructor makes the wholesale give-back in ~IntervalTreap safe.
  Node* alloc_chunk() {
    static_assert(std::is_trivially_destructible_v<Node>);
    if (!use_arena_) return new Node[kChunk];
    void* raw = support::SlabSource::instance().take(sizeof(Node) * kChunk);
    Node* arr = static_cast<Node*>(raw);
    for (std::size_t i = 0; i < kChunk; ++i) ::new (arr + i) Node();
    return arr;
  }

  void push_piece(addr_t lo, addr_t hi, const Accessor& w) {
    push_piece_from(0, lo, hi, w);
  }

  /// push_piece whose coalescing never reaches below index `floor`: the run
  /// paths set floor to the current interval's first piece, so coalescing
  /// stays within one interval (bit-identical to per-interval inserts).
  void push_piece_from(std::size_t floor, addr_t lo, addr_t hi,
                       const Accessor& w) {
    if (pieces_out_.size() > floor && pieces_out_.back().who.sid == w.sid &&
        pieces_out_.back().hi + 1 == lo) {
      pieces_out_.back().hi = hi;  // coalesce same-winner neighbours
    } else {
      pieces_out_.push_back({lo, hi, w});
    }
  }

  /// Sparse-run guard for the bulk paths.  The run apply carves (or, for
  /// erase, sweeps) the WHOLE span [iv[0].lo, iv[k-1].hi], materializing
  /// every stored segment in between - O(span contents) per run.  A run
  /// whose intervals cover only a sliver of that span (strided access over
  /// a large array, e.g. fft's butterfly reads) turns this quadratic:
  /// every run rebuilds the bulk of the treap.  Those runs go through the
  /// per-interval path instead - k root walks, O(k log n), never
  /// catastrophic - which is bit-identical by the §10 equivalence.  The
  /// bar is covered > span/4: the coalesced-record shapes the bulk path
  /// exists for sit at 50-100% density, strided patterns orders below it.
  template <class Iv>
  static bool run_is_dense(const Iv* iv, std::size_t k) {
    const addr_t need = (iv[k - 1].hi - iv[0].lo) / 4;
    addr_t covered = 0;
    for (std::size_t j = 0; j < k; ++j) {
      covered += iv[j].hi - iv[j].lo + 1;
      if (covered > need) return true;  // early out: dense runs scan a few
    }
    return false;
  }

  template <class Iv>
  static void assert_run_sorted(const Iv* iv, std::size_t k) {
#ifndef NDEBUG
    for (std::size_t j = 0; j < k; ++j) {
      PINT_ASSERT(iv[j].lo <= iv[j].hi);
      if (j > 0) PINT_ASSERT(iv[j - 1].hi < iv[j].lo);
    }
#else
    (void)iv;
    (void)k;
#endif
  }

  /// Run-sweep helper: emits keep pieces (original owner, no coalescing -
  /// they were distinct nodes and must stay distinct) for stored coverage
  /// strictly before `lo`.  *si / *seg_lo are the sweep frontier: the
  /// current scratch_ segment and the first not-yet-consumed byte in it.
  void sweep_keep_before(addr_t lo, std::size_t* si, addr_t* seg_lo) {
    while (*si < scratch_.size() && scratch_[*si].hi < lo) {
      pieces_out_.push_back({*seg_lo, scratch_[*si].hi, scratch_[*si].who});
      ++*si;
      if (*si < scratch_.size()) *seg_lo = scratch_[*si].lo;
    }
    if (*si < scratch_.size() && *seg_lo < lo) {
      pieces_out_.push_back({*seg_lo, lo - 1, scratch_[*si].who});
      *seg_lo = lo;
    }
  }

  /// Appends a node (strictly increasing key) to the right-spine stack.
  /// The tie rule (pop only on strictly greater priority) matches merge()'s
  /// `a->prio >= b->prio`, so heap_ok's strict check holds - for any node
  /// priorities, including reused ones.
  void spine_push(Node* n) {
    n->l = n->r = nullptr;
    Node* last_popped = nullptr;
    while (!spine_.empty() && spine_.back()->prio < n->prio) {
      last_popped = spine_.back();
      spine_.pop_back();
    }
    n->l = last_popped;
    if (!spine_.empty()) spine_.back()->r = n;
    spine_.push_back(n);
  }

  /// Builds a treap from the sorted, disjoint pieces_out_ in O(m) with the
  /// right-spine stack.
  Node* build_sorted() {
    spine_.clear();
    for (const Piece& p : pieces_out_) spine_push(make_node(p.lo, p.hi, p.who));
    return spine_.empty() ? nullptr : spine_.front();
  }

  /// erase_run zipper: in-order walk of the span's nodes, sweeping each
  /// against the run (n->r is captured first - the segment handler may
  /// relink or release the node).
  template <class Iv>
  void erase_sweep(Node* n, const Iv* iv, std::size_t k, std::size_t* j) {
    if (!n) return;
    erase_sweep(n->l, iv, k, j);
    Node* r = n->r;
    erase_sweep_segment(n->lo, n->hi, n->who, n, iv, k, j);
    erase_sweep(r, iv, k, j);
  }

  /// Emits the parts of segment [slo, shi] not covered by the run onto the
  /// spine, reusing `reuse` (may be null) for the first surviving part and
  /// releasing it if nothing survives.  *j advances monotonically.
  template <class Iv>
  void erase_sweep_segment(addr_t slo, addr_t shi, const Accessor& who,
                           Node* reuse, const Iv* iv, std::size_t k,
                           std::size_t* j) {
    addr_t cur = slo;
    for (;;) {
      while (*j < k && iv[*j].hi < cur) ++*j;
      if (*j == k || iv[*j].lo > shi) {  // remainder survives whole
        emit_kept(cur, shi, who, &reuse);
        break;
      }
      if (iv[*j].lo > cur) emit_kept(cur, iv[*j].lo - 1, who, &reuse);
      const addr_t stop = shi < iv[*j].hi ? shi : iv[*j].hi;
      if (stop == shi) break;  // covered to the end (also avoids hi+1 wrap)
      cur = stop + 1;
    }
    if (reuse) release(reuse);
  }

  void emit_kept(addr_t lo, addr_t hi, const Accessor& who, Node** reuse) {
    Node* n = *reuse;
    if (n) {
      *reuse = nullptr;
      n->lo = lo;
      n->hi = hi;
    } else {
      n = make_node(lo, hi, who);
    }
    spine_push(n);
  }

  /// Splits by key: a = nodes with node.lo < k, b = the rest.  Iterative
  /// top-down descent (the treap ops are the history lanes' hot loop, and
  /// the recursive form pays a call frame per level).
  static void split(Node* t, addr_t k, Node** a, Node** b) {
    while (t) {
      if (t->lo < k) {
        *a = t;
        a = &t->r;
        t = t->r;
      } else {
        *b = t;
        b = &t->l;
        t = t->l;
      }
    }
    *a = nullptr;
    *b = nullptr;
  }

  /// Iterative merge; the priority tie rule (left wins on >=) matches the
  /// recursive original, so shapes are unchanged.
  static Node* merge(Node* a, Node* b) {
    if (!a) return b;
    if (!b) return a;
    Node* root;
    Node** link = &root;
    for (;;) {
      if (a->prio >= b->prio) {
        *link = a;
        link = &a->r;
        a = a->r;
        if (!a) {
          *link = b;
          break;
        }
      } else {
        *link = b;
        link = &b->l;
        b = b->l;
        if (!b) {
          *link = a;
          break;
        }
      }
    }
    return root;
  }

  /// Detaches the maximum-key node. Heap order survives because the removed
  /// node's left child has a smaller priority than the removed node, hence
  /// than the parent too.
  static Node* detach_max(Node** t) {
    if (!*t) return nullptr;
    Node** link = t;
    while ((*link)->r) link = &(*link)->r;
    Node* m = *link;
    *link = m->l;
    m->l = nullptr;
    return m;
  }

  /// Builds the winner cover of [lo, hi] from the current scratch_ (the
  /// just-carved overlapped segments): gaps take `a`, overlapped segments go
  /// through `resolve`, adjacent same-winner pieces coalesce.  Returns the
  /// merged middle tree.  Shared by insert_reader and the sparse run apply.
  template <class R>
  Node* reader_cover(addr_t lo, addr_t hi, const Accessor& a, R& resolve) {
    pieces_out_.clear();
    addr_t cursor = lo;
    bool covered_to_hi = false;
    for (const Piece& p : scratch_) {
      if (p.lo > cursor) push_piece(cursor, p.lo - 1, a);
      const Accessor& w = resolve(p.who, a) ? a : p.who;
      push_piece(p.lo, p.hi, w);
      if (p.hi == hi) {  // avoids the hi+1 wrap when hi == kMaxAddr
        covered_to_hi = true;
        break;
      }
      cursor = p.hi + 1;
    }
    if (!covered_to_hi && cursor <= hi) push_piece(cursor, hi, a);
    Node* mid = nullptr;
    for (const Piece& p : pieces_out_) mid = merge(mid, make_node(p.lo, p.hi, p.who));
    return mid;
  }

  /// Removes everything overlapping [lo, hi] from the tree, records the
  /// overlapped segments (trimmed to [lo, hi]) into scratch_ in address
  /// order, and reattaches truncated boundary remainders to *left / *right.
  void carve(addr_t lo, addr_t hi, Node** left, Node** right) {
    carve_tree(&root_, lo, hi, left, right);
  }

  /// carve() generalized over an arbitrary subtree: the sparse run paths
  /// carve each interval out of the shrinking right remainder instead of
  /// re-splitting the whole tree from the root per interval.  The caller
  /// guarantees every node left of the carve window that could straddle it
  /// is inside *tree (true for the frontier apply: processed intervals all
  /// end strictly before the next interval's lo).
  void carve_tree(Node** tree, addr_t lo, addr_t hi, Node** left,
                  Node** right) {
    scratch_.clear();
    Node *a, *b;
    split(*tree, lo, &a, &b);
    *tree = nullptr;
    Node* rightrem = nullptr;

    Node* pred = detach_max(&a);
    if (pred) {
      if (pred->hi < lo) {
        a = merge(a, pred);  // no overlap; put back
      } else {
        scratch_.push_back({lo, pred->hi < hi ? pred->hi : hi, pred->who});
        if (pred->lo < lo) {
          Node* lr = make_node(pred->lo, lo - 1, pred->who);
          a = merge(a, lr);
        }
        if (pred->hi > hi) rightrem = make_node(hi + 1, pred->hi, pred->who);
        release(pred);
      }
    }

    Node *m, *c;
    split(b, hi == kMaxAddr ? kMaxAddr : hi + 1, &m, &c);
    if (hi == kMaxAddr && c) {
      // hi+1 would wrap; nothing can start after kMaxAddr anyway.
      m = merge(m, c);
      c = nullptr;
    }
    collect_overlaps(m, hi, &rightrem);
    *left = a;
    *right = merge(rightrem, c);
  }

  /// In-order walk of the middle tree: all nodes have lo in [lo, hi]; trim
  /// the last one's tail past hi into *rightrem; release the nodes.
  void collect_overlaps(Node* n, addr_t hi, Node** rightrem) {
    if (!n) return;
    collect_overlaps(n->l, hi, rightrem);
    scratch_.push_back({n->lo, n->hi < hi ? n->hi : hi, n->who});
    if (n->hi > hi) {
      PINT_ASSERT(*rightrem == nullptr);  // only the last node can spill over
      *rightrem = make_node(hi + 1, n->hi, n->who);
    }
    Node* r = n->r;
    release(n);
    collect_overlaps(r, hi, rightrem);
  }

  /// Multi-range query walk for sorted disjoint runs: *j is the frontier
  /// (first interval whose hi the walk has not passed).  A left subtree is
  /// pruned when every remaining interval starts at/after n->lo (disjoint
  /// segments mean the whole left subtree ends before n->lo); the right
  /// subtree is pruned once the frontier is exhausted.
  template <class Iv, class F>
  static void query_multi(const Node* n, const Iv* iv, std::size_t k,
                          std::size_t* j, F& cb) {
    if (!n || *j >= k) return;
    if (iv[*j].lo < n->lo) query_multi(n->l, iv, k, j, cb);
    while (*j < k && iv[*j].hi < n->lo) ++*j;
    for (std::size_t x = *j; x < k && iv[x].lo <= n->hi; ++x) {
      cb(iv[x].lo > n->lo ? iv[x].lo : n->lo,
         iv[x].hi < n->hi ? iv[x].hi : n->hi, n->who);
    }
    if (*j >= k) return;
    query_multi(n->r, iv, k, j, cb);
  }

  template <class F>
  static void query_rec(const Node* n, addr_t lo, addr_t hi, F& cb) {
    if (!n) return;
    if (n->lo > hi) {  // n and its right subtree start after the range
      query_rec(n->l, lo, hi, cb);
      return;
    }
    if (n->hi < lo) {  // n and its left subtree end before the range
      query_rec(n->r, lo, hi, cb);
      return;
    }
    query_rec(n->l, lo, hi, cb);
    cb(n->lo > lo ? n->lo : lo, n->hi < hi ? n->hi : hi, n->who);
    query_rec(n->r, lo, hi, cb);
  }

  template <class F>
  static void for_each_rec(const Node* n, F& cb) {
    if (!n) return;
    for_each_rec(n->l, cb);
    cb(n->lo, n->hi, n->who);
    for_each_rec(n->r, cb);
  }

  static std::size_t count_rec(const Node* n) {
    return n ? 1 + count_rec(n->l) + count_rec(n->r) : 0;
  }

  static bool heap_ok(const Node* n) {
    if (!n) return true;
    if (n->l && n->l->prio > n->prio) return false;
    if (n->r && n->r->prio > n->prio) return false;
    return heap_ok(n->l) && heap_ok(n->r);
  }

  static constexpr addr_t kMaxAddr = ~addr_t(0);
  static constexpr std::size_t kChunk = 512;

  Node* root_ = nullptr;
  Xoshiro256 rng_;
  bool use_arena_ = false;
  Node* free_ = nullptr;
  std::vector<Node*> chunks_;
  std::size_t used_ = kChunk;
  std::vector<Piece> scratch_;
  std::vector<Piece> pieces_out_;
  std::vector<Node*> spine_;  // build_sorted() right spine
};

}  // namespace pint::treap
