// The PINT_READ / PINT_WRITE / PINT_LOCK_* macros of pint_api.hpp, in both
// spellings: this TU expands them to the hooks, instrument_macros_off.cpp
// compiles the same program (macro_program.hpp) with
// -DPINT_DISABLE_INSTRUMENT, where they must vanish.

#include <gtest/gtest.h>

#include "macro_program.hpp"

pint::test::MacroRun pint::test::run_instrumented_macro_program() {
  return run_macro_program();
}

namespace {

using namespace pint::test;

TEST(InstrumentMacros, InstrumentedBuildRecordsEveryMacro) {
  const MacroRun r = run_instrumented_macro_program();
  EXPECT_EQ(r.stats.raw_reads, kMacroReads);
  EXPECT_EQ(r.stats.raw_writes, kMacroWrites);
  EXPECT_TRUE(r.race_on_shared);
  // The lock macros put both guarded writes under one lockset.
  EXPECT_FALSE(r.race_on_guarded);
}

TEST(InstrumentMacros, DisabledBuildRecordsNothing) {
  const MacroRun r = run_disabled_macro_program();
  EXPECT_EQ(r.stats.raw_reads, 0u);
  EXPECT_EQ(r.stats.raw_writes, 0u);
  EXPECT_EQ(r.distinct, 0u);
  EXPECT_FALSE(r.race_on_shared);
  EXPECT_FALSE(r.race_on_guarded);
}

}  // namespace
