#include "detect/instrument.hpp"

#include <atomic>
#include <cstdlib>

#include "detect/detector.hpp"
#include "detect/types.hpp"
#include "runtime/scheduler.hpp"
#include "support/assert.hpp"

namespace pint {

namespace {

std::atomic<detect::Detector*> g_active{nullptr};

// Global fast-path switch (tests/benchmarks).  Checked only at install time:
// with the knob off no cursor ever becomes installed, so the per-access
// dispatch needs no extra load.
std::atomic<bool> g_fast_path{true};

// dmalloc header: remembers the user size so dfree knows the range to clear.
struct BlockHeader {
  std::size_t user_bytes;
  std::uint64_t magic;
};
constexpr std::uint64_t kBlockMagic = 0xD17EC70BA110CULL;
constexpr std::size_t kHeaderBytes = 16;
static_assert(sizeof(BlockHeader) <= kHeaderBytes);

using detail::AccessCursor;

void flush_lane(AccessCursor& c, int lane) {
  if (c.out[lane] == nullptr) return;
  if (c.coalesce) {
    // In ablation mode open/pend never hold data (never-match sentinel
    // routes every access straight to add_raw), so there is nothing to
    // drain - and the sentinel must not be emitted as an interval.
    if (!c.open_empty(lane)) c.out[lane]->add(c.lo[lane], c.hi[lane]);
    for (unsigned i = 0; i < c.npend[lane]; ++i) {
      c.out[lane]->add(c.pend[lane][i].lo, c.pend[lane][i].hi);
    }
  }
  c.set_never_match(lane);
  c.npend[lane] = 0;
  c.out[lane] = nullptr;
}

}  // namespace

namespace detail {

std::atomic<bool> g_instrumentation_on{false};

// constinit: no dynamic initialization, so no thread_local guard or wrapper
// stands between the thread pointer and the cursor (detail::cursor()).
thread_local constinit AccessCursor t_cursor;

PINT_NOINLINE void record_access_slow(const void* p, std::size_t bytes,
                                      bool write) {
  detect::Detector* d = g_active.load(std::memory_order_relaxed);
  if (d == nullptr || bytes == 0) return;
  rt::Worker* w = rt::current_worker();
  if (w == nullptr || w->current_frame() == nullptr) return;  // outside a run
  const detect::addr_t lo = detect::addr_of(p);
  d->on_access(*w, *w->current_frame(), lo, lo + bytes - 1, write);
}

// The cursor miss path: uninstalled dispatch and the ablation mode first
// (both were folded into the hit predicate via the never-match sentinel),
// then demote the open interval into the pending ring (spilling the oldest
// pending entry once the ring is full) and open a fresh interval for this
// access.
PINT_NOINLINE void cursor_record_miss(AccessCursor& c, detect::addr_t lo,
                                      detect::addr_t hi, bool write) {
  if (PINT_UNLIKELY(!c.installed)) {
    detail::record_access_slow(reinterpret_cast<const void*>(lo),
                               hi - lo + 1, write);
    return;
  }
  if (PINT_UNLIKELY(!c.coalesce)) {
    c.out[write]->add_raw(lo, hi);  // ablation mode: no merging anywhere
    ++c.spilled;
    return;
  }
  // The pending-ring probe lives inline in record_lane (two-stream kernels
  // ping-pong between the open interval and the ring every other access;
  // paying an out-of-line call for each absorbed bounce dominated
  // chol/mmul).  Reaching here means a genuinely new interval.
  if (!c.open_empty(write)) {
    if (c.npend[write] == AccessCursor::kPend) {
      c.out[write]->add(c.pend[write][0].lo, c.pend[write][0].hi);
      ++c.spilled;
      for (unsigned i = 1; i < AccessCursor::kPend; ++i) {
        c.pend[write][i - 1] = c.pend[write][i];
      }
      --c.npend[write];
    }
    c.pend[write][c.npend[write]++] = {c.lo[write], c.hi[write]};
  }
  c.lo[write] = lo;
  c.hi[write] = hi;
}

}  // namespace detail

namespace detect {

void set_active_detector(Detector* d) {
  g_active.store(d, std::memory_order_seq_cst);
  detail::g_instrumentation_on.store(d != nullptr, std::memory_order_seq_cst);
}
Detector* active_detector() { return g_active.load(std::memory_order_relaxed); }

PINT_NOINLINE void cursor_install(AccessBuffer* reads, AccessBuffer* writes,
                                  bool coalesce) {
  if (!g_fast_path.load(std::memory_order_relaxed)) return;
  AccessCursor& c = *detail::cursor();
  if (PINT_UNLIKELY(c.installed)) {
    // Misuse guard: detectors invalidate before installing, so a live
    // cursor here means a caller skipped that - flush rather than lose the
    // previous strand's buffered intervals (the counts are dropped).
    flush_lane(c, 0);
    flush_lane(c, 1);
  }
  PINT_ASSERT(reads != nullptr && writes != nullptr);
  c.out[0] = reads;
  c.out[1] = writes;
  // Coalescing starts from the empty open interval; the ablation keeps the
  // never-match sentinel so every access takes the miss path's add_raw.
  for (int lane = 0; lane < 2; ++lane) {
    if (coalesce) {
      c.set_open_empty(lane);
    } else {
      c.set_never_match(lane);
    }
    c.npend[lane] = 0;
  }
  c.raw[0] = c.raw[1] = 0;
  c.spilled = 0;
  c.coalesce = coalesce;
  c.installed = true;
}

PINT_NOINLINE CursorFlush cursor_invalidate() {
  AccessCursor& c = *detail::cursor();
  CursorFlush out;
  if (!c.installed) return out;
  out.raw_reads = c.raw[0];
  out.raw_writes = c.raw[1];
  // A hit is an access absorbed in cursor storage: everything except the
  // per-access spills (ring overflow, ablation add_raw).  The end-of-strand
  // drain below is a bounded hand-off, not a miss.  Each miss spills at
  // most one entry, so spilled never exceeds raw.
  const std::uint64_t raw = c.raw[0] + c.raw[1];
  out.hits = raw - c.spilled;
  out.spills = c.spilled;
  flush_lane(c, 0);
  flush_lane(c, 1);
  c.raw[0] = c.raw[1] = 0;
  c.spilled = 0;
  c.installed = false;
  return out;
}

PINT_NOINLINE void cursor_reset() { *detail::cursor() = AccessCursor{}; }

PINT_NOINLINE bool cursor_installed() { return detail::cursor()->installed; }

void set_access_fast_path(bool on) {
  g_fast_path.store(on, std::memory_order_seq_cst);
}
bool access_fast_path() { return g_fast_path.load(std::memory_order_relaxed); }

}  // namespace detect

namespace {

// Shared slow route of the lock hooks: same dispatch as record_access_slow
// (lock events are control events - there is no cursor fast path to take,
// and detectors flush the cursor themselves when they split the strand).
PINT_NOINLINE void lock_event(const void* mutex, bool acquire) {
  detect::Detector* d = g_active.load(std::memory_order_relaxed);
  if (d == nullptr || mutex == nullptr) return;
  rt::Worker* w = rt::current_worker();
  if (w == nullptr || w->current_frame() == nullptr) return;  // outside a run
  const detect::addr_t lock = detect::addr_of(mutex);
  if (acquire) {
    d->on_lock_acquire(*w, *w->current_frame(), lock);
  } else {
    d->on_lock_release(*w, *w->current_frame(), lock);
  }
}

}  // namespace

void lock_acquire(const void* mutex) {
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  lock_event(mutex, true);
}
void lock_release(const void* mutex) {
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  lock_event(mutex, false);
}

extern "C" {
void __pint_lock_acquire(void* mutex) { lock_acquire(mutex); }
void __pint_lock_release(void* mutex) { lock_release(mutex); }
}

void* dmalloc(std::size_t bytes) {
  void* base = std::malloc(bytes + kHeaderBytes);
  PINT_CHECK_MSG(base != nullptr, "dmalloc: out of memory");
  auto* h = static_cast<BlockHeader*>(base);
  h->user_bytes = bytes;
  h->magic = kBlockMagic;
  return static_cast<char*>(base) + kHeaderBytes;
}

void dfree(void* p) {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeaderBytes;
  auto* h = static_cast<BlockHeader*>(base);
  PINT_CHECK_MSG(h->magic == kBlockMagic, "dfree: not a dmalloc block");
  h->magic = 0;
  const std::size_t bytes = h->user_bytes;

  detect::Detector* d = g_active.load(std::memory_order_relaxed);
  rt::Worker* w = rt::current_worker();
  if (d != nullptr && w != nullptr && w->current_frame() != nullptr &&
      bytes > 0) {
    const detect::addr_t lo = detect::addr_of(p);
    d->on_heap_free(*w, *w->current_frame(), base, lo, lo + bytes - 1);
    return;  // the detector owns the actual free now
  }
  std::free(base);
}

}  // namespace pint
