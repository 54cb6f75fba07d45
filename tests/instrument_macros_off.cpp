// The macro program of macro_program.hpp with its PINT_* macros compiled
// away: tests/CMakeLists.txt builds this TU with -DPINT_DISABLE_INSTRUMENT.

#ifndef PINT_DISABLE_INSTRUMENT
#error "instrument_macros_off.cpp must be built with -DPINT_DISABLE_INSTRUMENT"
#endif

#include "macro_program.hpp"

pint::test::MacroRun pint::test::run_disabled_macro_program() {
  return run_macro_program();
}
