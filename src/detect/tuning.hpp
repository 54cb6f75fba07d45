#pragma once

// One struct for every cross-cutting detector knob (DESIGN.md §12.5).
//
// The bulk-apply, access-fast-path and SIMD toggles are process
// globals (they live next to the machinery they switch); the lock-edge
// toggle is per-detector.  Tuning gathers all of them so
// callers set knobs in ONE place - `options.tuning.bulk_apply = false` -
// instead of hunting for per-subsystem setters, and so the environment
// override (PINT_TUNING=...) is parsed in one place instead of three.
//
// Lifecycle: a default-constructed Tuning snapshots the LIVE globals plus
// the PINT_TUNING overlay, so `CommonOptions` built after a test flipped a
// legacy setter still honors that setter.  Detector::run() calls
// apply_globals() at start (quiescence: the scheduler is not running yet),
// which writes the global knobs back - a no-op unless the caller edited the
// struct.

#include "detect/instrument.hpp"

namespace pint::detect {

struct Tuning {
  /// Sorted-run bulk treap apply (DESIGN.md §10).  Global knob.
  bool bulk_apply = true;
  /// Thread-local AccessCursor fast path (DESIGN.md §9).  Global knob.
  bool access_fast_path = true;
  /// Lock-aware detection (DESIGN.md §12): handle the lock hooks and filter
  /// conflicts whose segments share a mutex.  Per-detector: off ignores
  /// lock events entirely (records keep lsid 0, the pre-lock behavior).
  bool lock_edges = true;
  /// SIMD/branchless AccessBuffer::finalize (DESIGN.md §13): sortedness
  /// detector + radix bucketing + AVX2 merge mask, runtime-dispatched with
  /// a bit-identical scalar fallback.  Global knob.
  bool simd = true;

  /// Snapshot of the live global knobs + per-detector defaults.
  static Tuning current();

  /// current() overlaid with the PINT_TUNING environment variable, e.g.
  ///   PINT_TUNING=bulk=off,fastpath=on,locks=off,simd=off
  /// Unknown keys/values - the retired `cursor=`, `memo=` and `arena=`
  /// among them - warn once on stderr and are ignored.
  static Tuning from_env();

  /// Overlay a spec string ("bulk=off,locks=on,...") onto `base`.
  static Tuning parse(const char* spec, Tuning base);

  /// Push the global knobs (bulk_apply / access_fast_path / simd)
  /// into their process globals.  Call only at quiescence.
  void apply_globals() const;

  bool operator==(const Tuning&) const = default;
};

}  // namespace pint::detect
