#pragma once

// Instrumentation facade - what the Tapir compiler pass provides in the
// paper's setup, exposed here as an explicit API the benchmark kernels call.
//
//   pint::record_read(p, n) / record_write(p, n)  - a memory access
//   pint::dmalloc(n) / dfree(p)                   - detector-aware heap
//
// With no active detector every call is a cheap early-out, which is how the
// "baseline" rows of the evaluation tables are measured (same binary, same
// call sites, detection off).
//
// Fast path (DESIGN.md §9): while a strand executes, the detector installs a
// thread-local AccessCursor pointing straight at the strand's read/write
// AccessBuffers.  record_read/record_write then coalesce inline against the
// cursor's open interval and pending ring - no call, no detector load, no
// worker lookup, no virtual call.  Only a genuinely new interval leaves the
// call site (the noinline cursor_record_miss).  The cursor is installed at
// every strand begin and invalidated (flushed) at every strand end, so
// between install and invalidate the owning OS thread never changes (strand
// boundaries are exactly the scheduler's migration points).
//
// TLS rule: the calling code itself may migrate between OS threads at any
// spawn or sync, so the cursor's address must never be computed once and
// reused across one.  The one sanctioned way to reach t_cursor from inline
// code is detail::cursor(): it reads the thread pointer (%fs:0) inside an
// `asm volatile` and adds t_cursor's initial-exec TLS offset, a link-time
// constant that is the same on every thread.  A volatile asm is executed
// every time control reaches it and is never merged with another or hoisted
// across a call, so each hook re-reads the thread it is running on - after
// any spawn or sync in between.  A plain `&t_cursor` carries no such
// guarantee: the compiler assumes a function stays on one thread and may
// compute the address once per function.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "detect/stats.hpp"
#include "detect/types.hpp"
#include "support/assert.hpp"

#if !defined(__x86_64__)
#error "pint's access hook reads the x86-64 thread pointer (as the fiber switch in support/fiber.cpp is x86-64 only)"
#endif

// Assembler name of t_cursor, shared by its declaration and the asm in
// detail::cursor() that adds its TLS offset.
#define PINT_CURSOR_SYM "pint_detail_t_cursor"

namespace pint {

namespace detail {
/// True while a detector is installed. Read inline so that the "baseline"
/// configuration (detection off) pays only a predictable test-and-branch per
/// call site, mirroring an uninstrumented build.
extern std::atomic<bool> g_instrumentation_on;

// ---------------------------------------------------------------------------
// AccessCursor (DESIGN.md §9)
// ---------------------------------------------------------------------------
//
// One per OS thread.  Owned by at most one strand at a time: detectors
// install it when a strand begins executing on this thread and invalidate it
// at the strand's end (spawn / sync / return / steal boundaries).  Between
// those two hook calls the strand cannot migrate - the scheduler only moves
// work at exactly those boundaries - so the cursor needs no atomics.
//
// Per lane (reads / writes) the cursor keeps the STINT tail-probing shape
// entirely in cursor storage: one open interval extended in the common case,
// plus a small pending ring standing in for AccessBuffer::kTails streams.
// Only when all of those miss does an interval spill into the strand's
// AccessBuffer.  Any intermediate merge policy yields the same final
// interval set: AccessBuffer::finalize() sort-merges to the minimal disjoint
// cover when the strand is sealed.
//
// The per-access hit path is a single extension predicate against the open
// interval, so the cursor is laid out around it: the open intervals and raw
// counters for both lanes share the first (64-byte aligned) cache line and
// are indexed directly by the lane.  Everything rarer lives behind them:
// the pending ring, probed inline only after an open-interval miss, and the
// state only the noinline miss path touches.
//
// Two sentinel encodings of the open interval keep the hit path free of
// state branches (the predicate is `lo >= open.lo && lo <= open.hi + 1`):
//
//   empty       lo = ~0, hi = ~0 - 1   matches only an access at address ~0,
//                                      which extension then records exactly;
//   never-match lo = 1,  hi = ~0       hi + 1 wraps to 0, so no address
//                                      satisfies both comparisons.
//
// "Never-match" stands in for cursor-not-installed AND for the coalesce-off
// ablation: either way every access falls into the miss path, which sorts
// out which of the two it was.
struct alignas(64) AccessCursor {
  // kPend + the open interval = AccessBuffer::kTails interleaved streams.
  static constexpr unsigned kPend = detect::AccessBuffer::kTails - 1;

  // --- hot line: open interval + raw counters, indexed by lane ---
  detect::addr_t lo[2] = {1, 1};
  detect::addr_t hi[2] = {~detect::addr_t(0), ~detect::addr_t(0)};
  std::uint64_t raw[2] = {0, 0};

  // --- miss-path state ---
  std::uint64_t spilled = 0;  // per-access buffer touches; hits = raw - spilled
  detect::AccessBuffer* out[2] = {nullptr, nullptr};
  detect::Interval pend[2][kPend] = {};
  unsigned npend[2] = {0, 0};
  bool coalesce = true;
  bool installed = false;

  void set_open_empty(int lane) {
    lo[lane] = ~detect::addr_t(0);
    hi[lane] = ~detect::addr_t(0) - 1;
  }
  void set_never_match(int lane) {
    lo[lane] = 1;
    hi[lane] = ~detect::addr_t(0);
  }
  bool open_empty(int lane) const { return lo[lane] > hi[lane]; }
};

/// This thread's cursor.  initial-exec pins its offset from the thread
/// pointer at link time, identical on every thread whether pint is linked
/// static or shared.  Reach it only through cursor().
extern thread_local AccessCursor t_cursor __asm__(PINT_CURSOR_SYM)
    __attribute__((tls_model("initial-exec")));

/// The calling thread's cursor, re-derived from the thread pointer at every
/// call (see the TLS rule at the top of this file).
inline AccessCursor* cursor() {
  AccessCursor* c;
  asm volatile("movq %%fs:0, %0\n\t"
               "addq " PINT_CURSOR_SYM "@gottpoff(%%rip), %0"
               : "=r"(c));
  return c;
}

/// The cursor miss path (instrument.cpp): an uninstalled cursor or the
/// coalesce-off ablation, else a genuinely new interval.  Out of line so
/// the inline hit path stays a few instructions at every call site.
void cursor_record_miss(AccessCursor& c, detect::addr_t lo, detect::addr_t hi,
                        bool write);

/// The classic route (atomic detector load + worker lookup + virtual
/// on_access).  Kept callable directly so benchmarks can measure the fast
/// path against it; `set_access_fast_path(false)` forces every access here.
void record_access_slow(const void* p, std::size_t bytes, bool write);

// The per-lane hit path, branch-minimal by design: one raw-counter
// increment plus the same extension predicate as AccessBuffer::add's tail
// probe; installed/ablation state is encoded in the open-interval sentinels
// (see AccessCursor above), so the raw counters tick even with no cursor
// installed - install resets them, so only in-strand counts are ever read.
// kLane is a compile-time constant, so every cursor field is a fixed
// displacement from the cursor pointer.  Callers guarantee bytes > 0.
template <int kLane>
inline void record_lane(const void* p, std::size_t bytes) {
  AccessCursor& c = *cursor();
  const detect::addr_t lo = detect::addr_of(p);
  const detect::addr_t hi = lo + bytes - 1;
  ++c.raw[kLane];
  if (PINT_LIKELY(lo >= c.lo[kLane] && lo <= c.hi[kLane] + 1)) {
    if (hi > c.hi[kLane]) c.hi[kLane] = hi;
    return;
  }
  // Pending-ring probe, still inline: a miss absorbed by a pending stream is
  // the steady state for multi-stream kernels (mmul's B[k][j]/C[i][j],
  // chol's A[i][k]/A[j][k] ping-pong), and npend > 0 implies installed &&
  // coalesce, so no sentinel state can reach the extension predicate below.
  const unsigned np = c.npend[kLane];
  for (unsigned i = 0; i < np; ++i) {
    detect::Interval& b = c.pend[kLane][i];
    if (lo >= b.lo && lo <= b.hi + 1) {
      if (hi > b.hi) b.hi = hi;
      return;
    }
  }
  cursor_record_miss(c, lo, hi, kLane != 0);
}
}  // namespace detail

inline void record_read(const void* p, std::size_t bytes) {
  if (bytes == 0) return;  // zero-length: never reaches the cursor
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  detail::record_lane<0>(p, bytes);
}
inline void record_write(const void* p, std::size_t bytes) {
  if (bytes == 0) return;  // zero-length: never reaches the cursor
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  detail::record_lane<1>(p, bytes);
}

/// Typed helpers for single loads/stores.
template <class T>
inline T iload(const T& ref) {
  record_read(&ref, sizeof(T));
  return ref;
}
template <class T>
inline void istore(T& ref, const T& v) {
  record_write(&ref, sizeof(T));
  ref = v;
}

/// Detector-aware heap allocation. dfree clears the block's access history
/// (synchronously or deferred, per the active detector) before the memory
/// can be reused; using plain free() under a detector risks false races
/// through allocator reuse (paper §III-F).
void* dmalloc(std::size_t bytes);
void dfree(void* p);

/// Lock hooks (DESIGN.md §12) - what the compiler pass would emit around
/// mutex operations.  Call lock_acquire AFTER the real acquire succeeds and
/// lock_release BEFORE the real release, so the recorded critical section
/// nests inside the real one; the mutex's address is its identity.  With no
/// active detector both are the same cheap early-out as record_read.
void lock_acquire(const void* mutex);
void lock_release(const void* mutex);

extern "C" {
/// C-linkage spellings for instrumented builds (the Tapir-style pass emits
/// calls to these symbols).
void __pint_lock_acquire(void* mutex);
void __pint_lock_release(void* mutex);
}

/// RAII critical section: acquires the real lock, then records the acquire;
/// records the release, then releases the real lock.  The shape every
/// lock-aware kernel uses.
template <class Mutex>
class InstrumentedLockGuard {
 public:
  explicit InstrumentedLockGuard(Mutex& m) : m_(m) {
    m_.lock();
    lock_acquire(&m_);
  }
  ~InstrumentedLockGuard() {
    lock_release(&m_);
    m_.unlock();
  }
  InstrumentedLockGuard(const InstrumentedLockGuard&) = delete;
  InstrumentedLockGuard& operator=(const InstrumentedLockGuard&) = delete;

 private:
  Mutex& m_;
};

namespace detect {

/// What cursor_invalidate() hands back to the detector: the raw-access
/// counts recorded through the cursor since install, how many of them were
/// absorbed in cursor storage (open interval + pending ring - no per-access
/// AccessBuffer touch; the bounded end-of-strand drain is the normal
/// hand-off, not a miss), and the spills: the per-access buffer touches
/// that did happen (pending-ring overflow, or every access in the
/// coalesce-off ablation).
struct CursorFlush {
  std::uint64_t raw_reads = 0;
  std::uint64_t raw_writes = 0;
  std::uint64_t hits = 0;
  std::uint64_t spills = 0;
};

/// Installs this thread's AccessCursor over the given strand buffers.  Any
/// previously installed cursor is flushed first (its counts are dropped -
/// detectors always invalidate before installing, so that path only guards
/// against misuse).  No-op while the fast path is globally disabled.
void cursor_install(AccessBuffer* reads, AccessBuffer* writes, bool coalesce);

/// Flushes the cursor's cached intervals into the strand buffers, detaches
/// it, and returns the counters accumulated since install.  Must run on the
/// thread that owns the strand (detectors call it from the scheduler hooks
/// that end the strand, which always run there).  Safe to call with no
/// cursor installed (returns zeros).
CursorFlush cursor_invalidate();

/// cursor_invalidate() tallied into a detector thread's counts: raw
/// accesses, and the fast-path accesses, hits and spills among them.
inline void cursor_flush(Counts& tally) {
  const CursorFlush fl = cursor_invalidate();
  tally.raw_reads += fl.raw_reads;
  tally.raw_writes += fl.raw_writes;
  tally.fastpath_accesses += fl.raw_reads + fl.raw_writes;
  tally.fastpath_hits += fl.hits;
  tally.cursor_spills += fl.spills;
}

/// Hard reset: drop the cursor without flushing.  Only for thread entry /
/// defensive use where no strand can be current.
void cursor_reset();

bool cursor_installed();

/// Global knob (tests / benchmarks): false routes every access through
/// record_access_slow, exactly the pre-cursor behavior.  Default true.
/// Flip only at quiescence (no detection run in flight).
void set_access_fast_path(bool on);
bool access_fast_path();

}  // namespace detect

}  // namespace pint
