#pragma once

// Shared benchmark harness: runs a kernel under one of the four systems the
// paper evaluates (baseline / STINT / PINT / C-RACER) and returns wall time
// plus the detector's stats. Used by every figure-reproduction binary.
//
// All detector systems run through the detect::DetectorRunner seam, so the
// harness has exactly one post-run path (races, stats, telemetry export)
// regardless of system.  Pass --trace-out=FILE / --stats-json=FILE to any
// figure binary to capture a Chrome-trace JSON and a flat metrics JSON of
// each detector run (file names are tagged per spec; see run_spec()).

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "detect/run_result.hpp"
#include "detect/stats.hpp"

namespace pint::bench {

enum class System { kBaseline, kStint, kPint, kPintSeq, kCracer };

struct RunSpec {
  std::string kernel;
  System system = System::kBaseline;
  double scale = 1.0;
  /// Workers executing the computation. For PINT these are core workers
  /// (the three treap workers come on top, as in the paper's "P-3" setup).
  int workers = 1;
  bool coalesce = true;
  /// Access-history store (treap vs per-granule hashmap ablation).
  detect::HistoryKind history = detect::HistoryKind::kTreap;
  /// PINT only: >0 replaces the 3 role-workers with N address shards.
  int history_shards = 0;
  std::uint64_t seed = 12345;
  /// Repetitions; the minimum time is reported (paper uses the mean of 5;
  /// min is steadier on a shared 1-CPU container).
  int reps = 1;
  bool verify = true;
  /// Base paths for telemetry export; empty disables. The harness inserts a
  /// per-spec tag ("<kernel>-<system>-w<N>[...]") before the extension so
  /// one base path serves a whole figure's sweep.
  std::string trace_out;
  std::string stats_json;
};

struct BenchResult {
  double seconds = 0.0;            // best wall time of the detection run
  /// Detector construction time for the reported rep (reserve carving, store
  /// setup).  Separated from `seconds` so the steady-state overhead figure
  /// is not padded with setup.
  double setup_seconds = 0.0;
  std::uint64_t races = 0;         // distinct races reported (should be 0)
  detect::Stats::Snapshot stats{}; // from the reported rep (zeros for baseline)
  bool verified = true;
  /// Detector completion status (default-ok for baseline runs).
  detect::RunResult detect{};
  /// Telemetry files actually written for this spec ("" when not requested,
  /// not a detector run, or the build has PINT_TELEMETRY=OFF).
  std::string trace_path;
  std::string stats_path;
};

/// The metrics JSON "stats" section (telem::write_metrics_json): every
/// detect::Counts counter under its Stats name, then the run status.
std::vector<std::pair<std::string, std::uint64_t>> stats_kv(
    const detect::Counts& s, const detect::RunResult& rr);

/// Runs the spec; aborts on verification failure or unexpected races.
/// Without telemetry the best-of-reps result is returned; with telemetry
/// only the LAST rep is traced and that rep is returned, so the numbers a
/// figure prints are the numbers in the exported files.
BenchResult run_spec(const RunSpec& spec);

/// Command-line helpers shared by the figure binaries.
struct Args {
  double scale = -1.0;  // <0: binary default
  int workers = -1;
  int reps = 1;
  std::vector<std::string> kernels;  // empty: binary default
  std::string trace_out;   // --trace-out=FILE (Chrome trace JSON base path)
  std::string stats_json;  // --stats-json=FILE (metrics JSON base path)
  std::string json;        // --json FILE: figure-level summary JSON (only
                           // figure binaries that document it emit one)
};
Args parse_args(int argc, char** argv);

/// Prints the standard header naming the machine constraints (1-CPU
/// container vs the paper's 2x20-core Xeon).
void print_environment_note(const char* figure);

}  // namespace pint::bench
