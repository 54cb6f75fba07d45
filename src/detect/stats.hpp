#pragma once

// Detector counters and component timings, declared once.
//
// PINT_DETECT_COUNTERS is the single list of what a detection run counts.
// It generates the atomic Stats fields with clear(), snapshot() and add();
// the plain-value Counts that each detector thread tallies into and that
// snapshot() returns; and Counts::for_each, the (name, value) visitor the
// bench harness writes into the metrics JSON "stats" section.  Adding a
// counter is one line here plus its increment site.
//
// The names are the one counter vocabulary: a telemetry timeline counter
// that counts a Stats quantity while the run is in flight carries the same
// name (`steals`, `stalled_pushes`, `backoff_pauses`; DESIGN.md §8).
//
// The groups, one line each in the list:
//  * Access volume: raw accesses and the intervals they coalesced into.
//  * Hot path (DESIGN.md §9): fastpath_accesses are the raw accesses
//    recorded through the thread-local AccessCursor; fastpath_hits the
//    subset absorbed in cursor storage (open interval + pending ring, no
//    per-access AccessBuffer touch); cursor_spills the complement (ring
//    overflow, or every access with coalescing off); slowpath_accesses
//    those that took the classic detector-load + virtual-dispatch route.
//  * AccessBuffer::add tail probe (DESIGN.md §13): tail_probe_hits counts
//    adds that extended one of the last few stored intervals,
//    tail_probe_misses the appends.  Only spill and slow-route adds reach
//    add(), so these expose the traffic the cursor could not absorb.
//  * Seal (DESIGN.md §13): empty_strand_skips counts strands collected
//    with no recorded work, which skip queue publication;
//    finalize_sorted_skips the seals whose items were already sorted,
//    finalize_simd those that took the vectorized merge.
//  * Bulk apply and batching (DESIGN.md §10): bulk_runs counts *_run calls
//    issued to a history store, bulk_run_intervals the intervals they
//    carried; batch_drains / batch_strands the consumer lanes'
//    head-snapshot batches and the strands drained under them;
//    prefetch_issues the next-strand software prefetches; deep_backoffs
//    the Backoff waits that reached the bounded sleep tier (process-wide
//    delta).
//  * Computation shape: strands, traces, steals, reach_queries.
//  * Pipeline pressure and degradation, so overload and faults are visible
//    instead of silent: stalled_pushes (try_push found the ring full),
//    backoff_pauses (collect() backoff waits), dropped_strands (shed at the
//    queue cap), oom_events (survived allocation failures), watchdog_trips
//    (stall interventions).
//  * Time in ns: core_ns (core component, wall), writer_ns / lreader_ns /
//    rreader_ns (treap worker busy time; sharded mode stores the busiest
//    shard in lreader_ns and the shard sum in rreader_ns), total_ns (whole
//    run, wall).  The work-breakdown fields feed the Fig. 2 harness.

#include <atomic>
#include <cstdint>

#define PINT_DETECT_COUNTERS(X)                                             \
  X(raw_reads) X(raw_writes) X(read_intervals) X(write_intervals)           \
  X(fastpath_accesses) X(fastpath_hits) X(cursor_spills)                    \
  X(slowpath_accesses)                                                      \
  X(tail_probe_hits) X(tail_probe_misses)                                   \
  X(empty_strand_skips) X(finalize_sorted_skips) X(finalize_simd)           \
  X(bulk_runs) X(bulk_run_intervals) X(batch_drains) X(batch_strands)       \
  X(prefetch_issues) X(deep_backoffs)                                       \
  X(strands) X(traces) X(steals) X(reach_queries)                           \
  X(stalled_pushes) X(backoff_pauses) X(dropped_strands) X(oom_events)      \
  X(watchdog_trips)                                                         \
  X(core_ns) X(writer_ns) X(lreader_ns) X(rreader_ns) X(total_ns)

namespace pint::detect {

/// Plain-value counter set: one detector thread's tally, or a snapshot of
/// Stats.
struct Counts {
#define PINT_COUNTS_FIELD(name) std::uint64_t name = 0;
  PINT_DETECT_COUNTERS(PINT_COUNTS_FIELD)
#undef PINT_COUNTS_FIELD
  // Always 0 and outside the list, so absent from the metrics JSON and the
  // trace.  Their only reader is perfbench/pint_bench.cpp (its per-layer
  // reach.memo_hit_rate and arena.fresh_share); drop them together with
  // those metrics.
  std::uint64_t memo_queries = 0, memo_hits = 0;
  std::uint64_t arena_reuses = 0, arena_fresh = 0;

  /// Calls fn(name, value) for every listed counter, in list order.
  template <class Fn>
  void for_each(Fn&& fn) const {
#define PINT_COUNTS_VISIT(name) fn(#name, name);
    PINT_DETECT_COUNTERS(PINT_COUNTS_VISIT)
#undef PINT_COUNTS_VISIT
  }

  double coalesce_factor() const {
    const auto raw = raw_reads + raw_writes;
    const auto iv = read_intervals + write_intervals;
    return iv == 0 ? 0.0 : double(raw) / double(iv);
  }
  double fastpath_hit_rate() const {
    return fastpath_accesses == 0
               ? 0.0
               : double(fastpath_hits) / double(fastpath_accesses);
  }
  double avg_run_len() const {
    return bulk_runs == 0 ? 0.0
                          : double(bulk_run_intervals) / double(bulk_runs);
  }
  double avg_batch() const {
    return batch_drains == 0 ? 0.0
                             : double(batch_strands) / double(batch_drains);
  }
};

struct Stats {
#define PINT_STATS_FIELD(name) std::atomic<std::uint64_t> name{0};
  PINT_DETECT_COUNTERS(PINT_STATS_FIELD)
#undef PINT_STATS_FIELD

  using Snapshot = Counts;

  // QUIESCENCE CONTRACT: the individual counters are atomic, so concurrent
  // fetch_add from detector workers is always safe - but clear(),
  // snapshot() and add() are multi-field operations with no ordering
  // between fields.  Calling clear() or snapshot() while a detection run is
  // in flight yields a torn view (some fields pre-, some post-update), and
  // clear() would silently drop in-flight increments.  Both may only be
  // called at quiescence: before a run starts or after the detector's run()
  // has returned (all worker and history threads joined - the joins publish
  // every increment).

  void clear() {
#define PINT_STATS_CLEAR(name) name.store(0, std::memory_order_relaxed);
    PINT_DETECT_COUNTERS(PINT_STATS_CLEAR)
#undef PINT_STATS_CLEAR
  }

  Counts snapshot() const {
    Counts c;
#define PINT_STATS_LOAD(name) c.name = name.load(std::memory_order_relaxed);
    PINT_DETECT_COUNTERS(PINT_STATS_LOAD)
#undef PINT_STATS_LOAD
    return c;
  }

  /// Folds a thread's tally into the run totals (one relaxed fetch_add per
  /// counter).  Detectors call it once per tally at the end of a run.
  void add(const Counts& c) {
#define PINT_STATS_ADD(name) name.fetch_add(c.name, std::memory_order_relaxed);
    PINT_DETECT_COUNTERS(PINT_STATS_ADD)
#undef PINT_STATS_ADD
  }
};

}  // namespace pint::detect
