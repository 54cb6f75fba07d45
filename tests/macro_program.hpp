#pragma once

// One small fork-join program written only with the PINT_* instrumentation
// macros of pint_api.hpp.  test_instrument_macros compiles it twice: in
// test_instrument_macros.cpp as is, and in instrument_macros_off.cpp with
// -DPINT_DISABLE_INSTRUMENT.  Everything here that expands a macro sits in
// an unnamed namespace, so each TU keeps its own expansion.

#include <cstdint>
#include <mutex>

#include "pint_api.hpp"

namespace pint::test {

/// The accesses the program records when its macros are live.
inline constexpr std::uint64_t kMacroReads = 4;
inline constexpr std::uint64_t kMacroWrites = 4;

struct MacroRun {
  detect::Counts stats;
  std::uint64_t distinct = 0;
  bool race_on_shared = false;   // written by both strands, no lock
  bool race_on_guarded = false;  // written by both strands under one mutex
};

/// Defined in test_instrument_macros.cpp / instrument_macros_off.cpp.
MacroRun run_instrumented_macro_program();
MacroRun run_disabled_macro_program();

namespace {

struct MacroSlots {
  long shared = 0;  // only recorded, never stored: the race is the detector's
  long guarded = 0;
  std::mutex mu;
};

// One read and two writes; the write of `shared` is unguarded.
void macro_strand(MacroSlots& s) {
  PINT_WRITE(&s.shared, sizeof s.shared);
  s.mu.lock();
  PINT_LOCK_ACQUIRE(&s.mu);
  PINT_READ(&s.guarded, sizeof s.guarded);
  PINT_WRITE(&s.guarded, sizeof s.guarded);
  ++s.guarded;
  PINT_LOCK_RELEASE(&s.mu);
  s.mu.unlock();
}

// A child and the parallel continuation each run macro_strand; the strand
// after the sync reads both slots.
void macro_program(MacroSlots& s) {
  {
    rt::SpawnScope sc;
    sc.spawn([&s] { macro_strand(s); });
    macro_strand(s);
    sc.sync();
  }
  PINT_READ(&s.shared, sizeof s.shared);
  PINT_READ(&s.guarded, sizeof s.guarded);
}

MacroRun run_macro_program() {
  MacroSlots s;
  DetectorSpec spec;
  spec.workers = 2;
  auto det = make_detector(spec);
  det->run([&s] { macro_program(s); });
  MacroRun out;
  out.stats = det->stats().snapshot();
  out.distinct = det->reporter().distinct_races();
  const auto covers = [](const detect::RaceRecord& r, const long& slot) {
    const detect::addr_t lo = detect::addr_of(&slot);
    return r.lo <= lo + sizeof slot - 1 && r.hi >= lo;
  };
  for (const detect::RaceRecord& r : det->reporter().records()) {
    out.race_on_shared = out.race_on_shared || covers(r, s.shared);
    out.race_on_guarded = out.race_on_guarded || covers(r, s.guarded);
  }
  return out;
}

}  // namespace

}  // namespace pint::test
