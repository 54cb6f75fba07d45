// End-to-end benchmark of the PINT detector, driven only through the public
// surfaces: kernels::make_kernel / prepare / verify, pint::make_detector ->
// DetectorRunner::run / reporter / stats, rt::Scheduler::run for the
// uninstrumented base, and telem::set_enabled / span_totals /
// write_chrome_trace.  It adds no instrumentation of its own to the library;
// every span it records wraps a call into the library from out here.
//
// One *pass* runs every kernel of the workload once, uninstrumented and under
// detection, alternating which goes first so host drift cancels in the ratio.
// Pass 1 is the cold pass of a fresh process: its summed detector
// construction time is the set-up a user pays per real run.  Later passes are
// timed until --seconds have elapsed (and at least the workload's fixed pass
// count has run, so memory figures compare like with like).
//
//   pint_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--setup-only] [--trace-dir DIR]
//
// Human-readable lines go to stdout first; the last stdout line is one JSON
// object {"stamp", "attempted", "failed", "correct", "metrics"}.
// perfbench/run.py builds this binary and reshapes that line for callers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pint_api.hpp"

namespace {

using pint::detect::Stats;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct KernelSpec {
  const char* name;
  double scale;
  bool lock = false;  // lockset-filter kernel: also summed into detect.lock_s
};

struct Workload {
  const char* name;
  int core_workers;
  bool parallel_history;
  int history_shards;
  std::vector<KernelSpec> kernels;
  /// Seeded-race variants run untimed after the timed passes; each must be
  /// reported as racy.
  std::vector<KernelSpec> twins;
};

/// Fixed pass count (cold pass included) at which RSS figures are read, so
/// runs of different speed compare memory after the same work.  Later passes
/// only add pool high-water marks, which spread from run to run.
constexpr int kRssPass = 10;

// Why each workload exists is recorded in README.md next to this file.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"phased-suite", 1, false, 0,
       {{"chol", 8}, {"heat", 8}, {"mmul", 4}, {"sort", 2}, {"stra", 4},
        {"straz", 4}, {"fft", 4}, {"lkcache", 32, true},
        {"lktwin", 64, true}},
       {{"mmul", 4}, {"sort", 2}, {"heat", 8}, {"lktwin", 64, true}}},
      {"pipelined-strided", 1, true, 0,
       {{"fft", 16}},
       {{"fft", 16}}},
      {"stealing-sharded", 2, true, 2,
       {{"mmul", 8}, {"sort", 4}, {"stra", 8}, {"chol", 8}, {"heat", 8}},
       {{"mmul", 8}, {"sort", 4}}},
  };
  return w;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Reads a "VmRSS:" / "VmHWM:" line of /proc/self/status, in MB.
double proc_status_mb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::atof(line.c_str() + n) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest order statistic with at least ten samples above it, and the
/// percentile it sits at (0 when there are fewer than eleven samples).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;  // 0-based: 10 samples above it
  t.value = v[idx];
  t.percentile = 100.0 * double(idx + 1) / double(v.size());
  t.beyond = v.size() - idx - 1;
  return t;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// The benchmark's own spans (pass -> kernel -> prepare / make_detector / run /
// verify).  Kept in memory, summarized and exported at the end.
// ---------------------------------------------------------------------------

struct SpanRec {
  const char* name;
  int pass;
  int kernel;  // index into the workload's kernel list, -1 for pass spans
  int parent;  // index into the span vector, -1 for roots
  double t0, t1;
};

class SpanLog {
 public:
  int open(const char* name, int pass, int kernel, int parent) {
    spans_.push_back({name, pass, kernel, parent, now_s(), 0.0});
    return int(spans_.size()) - 1;
  }
  void close(int id) { spans_[std::size_t(id)].t1 = now_s(); }

  /// Self time (span minus its children) summed per span name.
  std::vector<std::pair<std::string, double>> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].t1 - spans_[i].t0;
      const int p = spans_[i].parent;
      if (p >= 0) self[std::size_t(p)] -= spans_[i].t1 - spans_[i].t0;
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
        return e.first == spans_[i].name;
      });
      if (it == out.end()) {
        out.emplace_back(spans_[i].name, self[i]);
      } else {
        it->second += self[i];
      }
    }
    return out;
  }

  bool write_chrome(const std::string& path, const Workload& w) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    const double base = spans_.empty() ? 0.0 : spans_.front().t0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"pass\":%d,"
                   "\"kernel\":\"%s\"}}\n",
                   i == 0 ? "" : ",", s.name, (s.t0 - base) * 1e6,
                   (s.t1 - s.t0) * 1e6, s.pass,
                   s.kernel < 0 ? "" : w.kernels[std::size_t(s.kernel)].name);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<SpanRec> spans_;
};

// ---------------------------------------------------------------------------
// Runs and verdicts
// ---------------------------------------------------------------------------

struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const char* what, const char* kernel, int pass) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "# FAILED pass %d kernel %s: %s\n", pass, kernel,
                   what);
    }
  }
};

struct DetectSample {
  double setup_s = 0.0;
  double run_s = 0.0;
  Stats::Snapshot st{};
  double collect_s = 0.0;  // collect.strand span total (traced runs only)
};

struct Bench {
  Bench(const Workload& w, std::uint64_t s) : wl(w), seed(s) {}

  pint::kernels::KernelConfig kernel_config(std::size_t k, bool racy) const {
    pint::kernels::KernelConfig kc;
    const KernelSpec& ks = racy ? wl.twins[k] : wl.kernels[k];
    kc.scale = ks.scale;
    kc.seeded_race = racy;
    std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a of the kernel name
    for (const char* c = ks.name; *c != 0; ++c) {
      h = (h ^ std::uint8_t(*c)) * 0x100000001B3ull;
    }
    kc.seed = mix(seed ^ h);
    return kc;
  }

  /// The seed makes kernel inputs only; detector and scheduler keep their
  /// default RNG seeds, as a user's run would.
  pint::DetectorSpec detector_spec() const {
    pint::DetectorSpec spec;
    spec.workers = wl.core_workers;
    spec.parallel_history = wl.parallel_history;
    spec.history_shards = wl.history_shards;
    return spec;
  }

  /// Uninstrumented run on as many workers as the detector has core workers.
  double run_base(std::size_t k, int pass, int parent) {
    const char* kname = wl.kernels[k].name;
    auto kern = pint::kernels::make_kernel(kname, kernel_config(k, false));
    int sp = spans.open("prepare", pass, int(k), parent);
    kern->prepare();
    spans.close(sp);
    pint::rt::Scheduler::Options so;
    so.workers = wl.core_workers;
    pint::rt::Scheduler sched(so);
    sp = spans.open("base_run", pass, int(k), parent);
    const double t0 = now_s();
    sched.run([&] { kern->run(); });
    const double dt = now_s() - t0;
    spans.close(sp);
    sp = spans.open("verify", pass, int(k), parent);
    verdicts.check(kern->verify(), "base verify() failed", kname, pass);
    spans.close(sp);
    return dt;
  }

  /// One detected run of kernel k (or of its seeded-race twin), checked.
  DetectSample run_detect(std::size_t k, bool racy, bool traced, int pass,
                          int parent, const std::string& trace_path = "") {
    const char* kname = racy ? wl.twins[k].name : wl.kernels[k].name;
    auto kern = pint::kernels::make_kernel(kname, kernel_config(k, racy));
    const int kidx = racy ? -1 : int(k);
    int sp = spans.open("prepare", pass, kidx, parent);
    kern->prepare();
    spans.close(sp);

    DetectSample s;
    sp = spans.open("make_detector", pass, kidx, parent);
    double t0 = now_s();
    auto det = pint::make_detector(detector_spec());
    s.setup_s = now_s() - t0;
    spans.close(sp);

    if (traced) {
      pint::telem::reset();
      pint::telem::set_enabled(true);
    }
    sp = spans.open("run", pass, kidx, parent);
    t0 = now_s();
    const pint::detect::RunResult rr = det->run([&] { kern->run(); });
    s.run_s = now_s() - t0;
    spans.close(sp);
    if (traced) {
      pint::telem::set_enabled(false);
      for (const auto& t : pint::telem::span_totals()) {
        if (t.name == "collect.strand") s.collect_s += double(t.total) * 1e-9;
      }
      if (!trace_path.empty() && !pint::telem::write_chrome_trace(trace_path)) {
        std::fprintf(stderr, "# warning: could not write %s\n",
                     trace_path.c_str());
      }
    }
    s.st = det->stats().snapshot();
    arena_fresh += s.st.arena_fresh;
    arena_reuses += s.st.arena_reuses;

    verdicts.check(rr.ok() && !rr.degraded_sequential_history,
                    "RunResult not ok or degraded", kname, pass);
    const std::uint64_t races = det->reporter().distinct_races();
    if (racy) {
      verdicts.check(races >= 1, "seeded race not reported", kname, pass);
    } else {
      verdicts.check(races == 0, "race reported on a race-free kernel",
                      kname, pass);
      sp = spans.open("verify", pass, kidx, parent);
      verdicts.check(kern->verify(), "verify() failed", kname, pass);
      spans.close(sp);
    }
    sp = spans.open("destroy_detector", pass, kidx, parent);
    det.reset();
    spans.close(sp);
    return s;
  }

  const Workload& wl;
  std::uint64_t seed;
  SpanLog spans;
  Verdicts verdicts;
  // Arena objects served fresh vs recycled, over every detected run.
  std::uint64_t arena_fresh = 0, arena_reuses = 0;
};

// Per-pass sums over the workload's kernels.
struct PassLedger {
  double base_s = 0, detect_s = 0, setup_s = 0, lock_s = 0;
  double traced_s = 0;  // outside-timed run() of the telemetry-armed runs
  double core_s = 0, total_s = 0, writer_s = 0, lreader_s = 0, rreader_s = 0;
  double collect_s = 0;
  double raw = 0, intervals = 0, fast_acc = 0, fast_hits = 0;
  double steals = 0, traces = 0, strands = 0, stalled = 0, backoff = 0;
  double batch_drains = 0, batch_strands = 0, bulk_runs = 0, bulk_ivs = 0;
  double reach_q = 0, memo_q = 0, memo_h = 0;

  void add_stats(const Stats::Snapshot& s) {
    core_s += double(s.core_ns) * 1e-9;
    total_s += double(s.total_ns) * 1e-9;
    writer_s += double(s.writer_ns) * 1e-9;
    lreader_s += double(s.lreader_ns) * 1e-9;
    rreader_s += double(s.rreader_ns) * 1e-9;
    raw += double(s.raw_reads + s.raw_writes);
    intervals += double(s.read_intervals + s.write_intervals);
    fast_acc += double(s.fastpath_accesses);
    fast_hits += double(s.fastpath_hits);
    steals += double(s.steals);
    traces += double(s.traces);
    strands += double(s.strands);
    stalled += double(s.stalled_pushes);
    backoff += double(s.backoff_pauses);
    batch_drains += double(s.batch_drains);
    batch_strands += double(s.batch_strands);
    bulk_runs += double(s.bulk_runs);
    bulk_ivs += double(s.bulk_run_intervals);
    reach_q += double(s.reach_queries);
    memo_q += double(s.memo_queries);
    memo_h += double(s.memo_hits);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_dir;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--setup-only] [--trace-dir DIR]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
    } else if (a == "--seed") {
      o.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(val().c_str());
    } else if (a == "--trace") {
      o.trace = val() == "1";
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--trace-dir") {
      o.trace_dir = val();
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload.empty() || !(o.seconds > 0)) usage(argv[0]);
  return o;
}

/// Benchmark numbers from a debug or sanitizer build would mislead; the
/// stamp records what the numbers were taken on.
std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not an optimized build";
  }
  if (std::strlen(PERFBENCH_SANITIZER) != 0) {
    return std::string("sanitizer build (PINT_SAN=") + PERFBENCH_SANITIZER + ")";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG not defined)";
#else
  return "";
#endif
}

std::string stamp_json(const Options& o, const Workload& w, std::size_t passes,
                       const Tail& tail) {
  std::string scales;
  for (const auto& k : w.kernels) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%g", scales.empty() ? "" : ",",
                  k.name, k.scale);
    scales += buf;
  }
  // PINT_TUNING changes the detector's knobs, so it belongs in the stamp;
  // keep only characters that need no JSON escaping.
  std::string tuning;
  if (const char* t = std::getenv("PINT_TUNING")) {
    for (; *t != 0 && tuning.size() < 200; ++t) {
      if (*t != '"' && *t != '\\' && std::uint8_t(*t) >= 0x20) tuning += *t;
    }
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"hw_threads\":%u,\"reach_backend\":\"%s\",\"telemetry\":%s,"
      "\"march_native\":%s,\"build_type\":\"%s\",\"seed\":%llu,"
      "\"workload\":\"%s\",\"core_workers\":%d,\"parallel_history\":%s,"
      "\"history_shards\":%d,\"pint_tuning\":\"%s\",\"scales\":{%s},"
      "\"timed_passes\":%zu,\"rss_pass\":%d,\"tail_percentile\":%.1f,"
      "\"tail_beyond\":%zu}",
      std::thread::hardware_concurrency(), PERFBENCH_REACH_BACKEND,
      PINT_TELEMETRY_ENABLED ? "true" : "false",
      PERFBENCH_MARCH_NATIVE ? "true" : "false", PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(o.seed), w.name, w.core_workers,
      w.parallel_history ? "true" : "false", w.history_shards,
      tuning.c_str(), scales.c_str(), passes, kRssPass,
      tail.percentile, tail.beyond);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit);
    out += buf;
  }
  return out + "}";
}

/// Phased mode runs core, writer, lreader and rreader back to back, so their
/// sum should account for the outside-timed run(); print what it does not.
void print_reconciliation(const Workload& w,
                          const std::vector<std::vector<DetectSample>>& by_k) {
  std::printf("# ledger (median per pass, seconds): core + writer + lreader + "
              "rreader vs outside-timed run()\n");
  std::printf("# %-8s %9s %9s %9s %9s %9s %9s %10s\n", "kernel", "core",
              "writer", "lreader", "rreader", "sum", "run()", "unexplained");
  auto row = [](const char* name, const std::vector<DetectSample>& ds) {
    std::vector<double> c, wr, l, r, run;
    for (const auto& d : ds) {
      c.push_back(double(d.st.core_ns) * 1e-9);
      wr.push_back(double(d.st.writer_ns) * 1e-9);
      l.push_back(double(d.st.lreader_ns) * 1e-9);
      r.push_back(double(d.st.rreader_ns) * 1e-9);
      run.push_back(d.run_s);
    }
    const double sum = median(c) + median(wr) + median(l) + median(r);
    std::printf("# %-8s %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f %10.5f\n", name,
                median(c), median(wr), median(l), median(r), sum, median(run),
                median(run) - sum);
  };
  std::vector<DetectSample> total(by_k.empty() ? 0 : by_k[0].size());
  for (std::size_t k = 0; k < by_k.size(); ++k) {
    row(w.kernels[k].name, by_k[k]);
    for (std::size_t p = 0; p < by_k[k].size() && p < total.size(); ++p) {
      DetectSample& t = total[p];
      const DetectSample& d = by_k[k][p];
      t.st.core_ns += d.st.core_ns;
      t.st.writer_ns += d.st.writer_ns;
      t.st.lreader_ns += d.st.lreader_ns;
      t.st.rreader_ns += d.st.rreader_ns;
      t.run_s += d.run_s;
    }
  }
  row("TOTAL", total);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload* wp = nullptr;
  for (const auto& w : workloads()) {
    if (opt.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "refusing to benchmark: %s\n", refusal.c_str());
    return 3;
  }
  if (opt.trace && !PINT_TELEMETRY_ENABLED) {
    std::fprintf(stderr, "refusing a traced run: built with PINT_TELEMETRY=OFF\n");
    return 3;
  }

  Bench b(w, opt.seed);
  const std::size_t nk = w.kernels.size();

  // Pass 1: cold.  Its detector construction times are the set-up figure.
  double cold_setup_s = 0.0;
  std::vector<double> rss_after_pass;
  {
    const int ps = b.spans.open("pass", 1, -1, -1);
    for (std::size_t k = 0; k < nk; ++k) {
      const int ks = b.spans.open("kernel", 1, int(k), ps);
      b.run_base(k, 1, ks);
      cold_setup_s += b.run_detect(k, false, false, 1, ks).setup_s;
      b.spans.close(ks);
    }
    b.spans.close(ps);
    rss_after_pass.push_back(proc_status_mb("VmRSS:"));
  }
  if (opt.setup_only) {
    std::printf("{\"setup_s\":%.9g,\"attempted\":%llu,\"failed\":%llu}\n",
                cold_setup_s,
                static_cast<unsigned long long>(b.verdicts.attempted),
                static_cast<unsigned long long>(b.verdicts.failed));
    return 0;
  }

  // Timed passes.  Untraced runs give the end-to-end figures; a traced run
  // adds one telemetry-armed detection of every kernel per pass, whose Stats
  // and spans give the per-layer figures and whose cost against the
  // untraced run is the telemetry overhead.
  std::vector<PassLedger> passes;
  std::vector<std::vector<DetectSample>> ledger_by_kernel(nk);
  std::vector<std::vector<double>> base_by_kernel(nk), detect_by_kernel(nk);
  double peak_rss_mb = 0.0;
  const double t_end = now_s() + opt.seconds;
  for (int pass = 2; now_s() < t_end || pass <= kRssPass; ++pass) {
    PassLedger pl;
    const bool base_first = pass % 2 == 0;
    const int ps = b.spans.open("pass", pass, -1, -1);
    for (std::size_t k = 0; k < nk; ++k) {
      const int ks = b.spans.open("kernel", pass, int(k), ps);
      double base_s = base_first ? b.run_base(k, pass, ks) : 0.0;
      const DetectSample d = b.run_detect(k, false, false, pass, ks);
      if (!base_first) base_s = b.run_base(k, pass, ks);
      base_by_kernel[k].push_back(base_s);
      detect_by_kernel[k].push_back(d.run_s);
      pl.base_s += base_s;
      pl.detect_s += d.run_s;
      pl.setup_s += d.setup_s;
      if (w.kernels[k].lock) pl.lock_s += d.run_s;
      if (opt.trace) {
        std::string path;
        if (pass == 2 && !opt.trace_dir.empty()) {
          path = opt.trace_dir + "/" + w.name + "-" + w.kernels[k].name +
                 ".trace.json";
        }
        // Counters and lane times come from the untraced run (telemetry
        // switches phased mode to per-strand lane watches); only the spans
        // need the traced one.
        const DetectSample t = b.run_detect(k, false, true, pass, ks, path);
        pl.traced_s += t.run_s;
        pl.collect_s += t.collect_s;
        pl.add_stats(d.st);
        ledger_by_kernel[k].push_back(d);
      }
      b.spans.close(ks);
    }
    b.spans.close(ps);
    rss_after_pass.push_back(proc_status_mb("VmRSS:"));
    if (pass == kRssPass) peak_rss_mb = proc_status_mb("VmHWM:");
    passes.push_back(pl);
  }

  // Seeded-race twins, untimed.
  for (std::size_t k = 0; k < w.twins.size(); ++k) {
    b.run_detect(k, true, false, 0, -1);
  }

  auto col = [&](auto f) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(f(p));
    return v;
  };
  const double detect_p50 = median(col([](auto& p) { return p.detect_s; }));
  const double base_p50 = median(col([](auto& p) { return p.base_s; }));
  const Tail tail = tail_of(col([](auto& p) { return p.detect_s; }));
  // Each pass's detected time over its own base time: the two alternate
  // kernel by kernel, so host speed drift cancels in the ratio.
  auto overhead = [](const PassLedger& p) { return ratio(p.detect_s, p.base_s); };
  const double overhead_p50 = median(col(overhead));
  const Tail overhead_tail = tail_of(col(overhead));
  const double ok_rate =
      1.0 - ratio(double(b.verdicts.failed), double(b.verdicts.attempted));

  std::printf("# workload %s seed %llu: %zu timed passes after 1 cold pass, "
              "%zu kernels per pass\n",
              w.name, static_cast<unsigned long long>(opt.seed), passes.size(),
              nk);
  for (std::size_t k = 0; k < nk; ++k) {
    const double bk = median(base_by_kernel[k]);
    const double dk = median(detect_by_kernel[k]);
    std::printf("# kernel %-8s scale %-4g base p50 %.5f s, detect p50 %.5f s "
                "(%.2fx)\n",
                w.kernels[k].name, w.kernels[k].scale, bk, dk, ratio(dk, bk));
  }
  std::printf("# detect pass: p50 %.5f s, p%.1f %.5f s (%zu of %zu passes "
              "beyond); base pass p50 %.5f s\n",
              detect_p50, tail.percentile, tail.value, tail.beyond,
              passes.size(), base_p50);
  std::printf("# overhead (detect / base, per pass): p50 %.3fx, p%.1f %.3fx\n",
              overhead_p50, overhead_tail.percentile, overhead_tail.value);
  std::printf("# set-up: cold pass %.6f s, warm pass p50 %.6f s\n",
              cold_setup_s, median(col([](auto& p) { return p.setup_s; })));
  std::printf("# RSS MB after pass 1 / %d / %zu: %.1f / %.1f / %.1f; peak at "
              "pass %d: %.1f\n",
              kRssPass, rss_after_pass.size(), rss_after_pass.front(),
              rss_after_pass[std::size_t(kRssPass) - 1],
              rss_after_pass.back(), kRssPass, peak_rss_mb);
  std::printf("# verdicts: %llu attempted, %llu failed, %zu seeded-race "
              "twins\n",
              static_cast<unsigned long long>(b.verdicts.attempted),
              static_cast<unsigned long long>(b.verdicts.failed),
              w.twins.size());

  std::vector<Metric> ms;
  if (!opt.trace) {
    ms = {{"overhead_x", overhead_p50, "x"},
          {"overhead_tail_x", overhead_tail.value, "x"},
          {"setup_s", cold_setup_s, "s"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"verdict_ok_rate", ok_rate, "ratio"}};
  } else {
    const bool sharded = w.history_shards > 0;
    const double shards = double(std::max(1, w.history_shards));
    auto med = [&](auto f) { return median(col(f)); };
    // Lane busy time per pass: the three role lanes, or the shard sum.
    auto lanes = [&](const PassLedger& p) {
      return sharded ? p.rreader_s : p.writer_s + p.lreader_s + p.rreader_s;
    };
    ms = {
        // Raw wall time of a detected pass: what a user waits for a verdict.
        // On a shared host it drifts by more than any useful regression
        // bound, so it is reported here; overhead_x is its drift-free twin.
        {"pass.detect_p50_s", detect_p50, "s"},
        {"pass.detect_tail_s", tail.value, "s"},
        {"runtime.base_s", base_p50, "s"},
        {"runtime.steals", med([](auto& p) { return p.steals; }), "count"},
        {"detect.raw_accesses", med([](auto& p) { return p.raw; }), "count"},
        {"detect.intervals", med([](auto& p) { return p.intervals; }), "count"},
        {"detect.coalesce_x",
         med([](auto& p) { return ratio(p.raw, p.intervals); }), "x"},
        {"detect.core_s", med([](auto& p) { return p.core_s; }), "s"},
        {"detect.hook_ns_per_access",
         med([](auto& p) { return ratio((p.core_s - p.base_s) * 1e9, p.raw); }),
         "ns"},
        {"detect.fastpath_hit_rate",
         med([](auto& p) { return ratio(p.fast_hits, p.fast_acc); }), "ratio"},
        {"detect.lock_s", med([](auto& p) { return p.lock_s; }), "s"},
        {"pint.collect_s", med([](auto& p) { return p.collect_s; }), "s"},
        {"pint.traces", med([](auto& p) { return p.traces; }), "count"},
        {"pint.strands", med([](auto& p) { return p.strands; }), "count"},
        {"pint.drain_s", med([](auto& p) { return p.total_s - p.core_s; }), "s"},
        {"pint.stalled_pushes", med([](auto& p) { return p.stalled; }), "count"},
        {"pint.backoff_pauses", med([](auto& p) { return p.backoff; }), "count"},
        {"pint.batch_avg",
         med([](auto& p) { return ratio(p.batch_strands, p.batch_drains); }),
         "count"},
        {"pint.shard_imbalance",
         sharded ? med([&](auto& p) {
           return ratio(p.lreader_s, p.rreader_s / shards);
         })
                 : 0.0,
         "x"},
        {"treap.writer_s", sharded ? 0.0 : med([](auto& p) { return p.writer_s; }),
         "s"},
        {"treap.lreader_s",
         sharded ? 0.0 : med([](auto& p) { return p.lreader_s; }), "s"},
        {"treap.rreader_s",
         sharded ? 0.0 : med([](auto& p) { return p.rreader_s; }), "s"},
        {"treap.shard_max_s",
         sharded ? med([](auto& p) { return p.lreader_s; }) : 0.0, "s"},
        {"treap.shard_sum_s",
         sharded ? med([](auto& p) { return p.rreader_s; }) : 0.0, "s"},
        {"treap.ns_per_interval",
         med([&](auto& p) { return ratio(lanes(p) * 1e9, p.intervals); }),
         "ns"},
        {"treap.bulk_run_len",
         med([](auto& p) { return ratio(p.bulk_ivs, p.bulk_runs); }), "count"},
        {"reach.queries", med([](auto& p) { return p.reach_q; }), "count"},
        {"reach.queries_per_interval",
         med([](auto& p) { return ratio(p.reach_q, p.intervals); }), "ratio"},
        {"reach.memo_hit_rate",
         med([](auto& p) { return ratio(p.memo_h, p.memo_q); }), "ratio"},
        {"arena.fresh_share",
         ratio(double(b.arena_fresh),
               double(b.arena_fresh + b.arena_reuses)),
         "ratio"},
        {"arena.rss_growth_mb",
         rss_after_pass[std::size_t(kRssPass) - 1] - rss_after_pass.front(),
         "MB"},
        {"telemetry.overhead_x",
         ratio(med([](auto& p) { return p.traced_s; }), detect_p50), "x"},
        // Phased: the lanes run after the core, so core + lanes should sum
        // to run().  Pipelined: the lanes overlap the core and the drain
        // (total - core) is what they add, so core + drain = total_ns.
        {"ledger.unexplained_s",
         med([&](auto& p) {
           return p.detect_s -
                  (w.parallel_history ? p.total_s : p.core_s + lanes(p));
         }),
         "s"},
    };
    if (!w.parallel_history) print_reconciliation(w, ledger_by_kernel);
    std::printf("# benchmark span self time, mean per pass (s):");
    for (const auto& [name, s] : b.spans.self_times()) {
      std::printf(" %s=%.5f", name.c_str(),
                  s / double(passes.size() + 1));
    }
    std::printf("\n");
    if (!opt.trace_dir.empty()) {
      const std::string p = opt.trace_dir + "/" + w.name + "-bench-spans.json";
      if (!b.spans.write_chrome(p, w)) {
        std::fprintf(stderr, "# warning: could not write %s\n", p.c_str());
      }
    }
  }

  std::printf("{\"stamp\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"correct\":%s,\"metrics\":%s}\n",
              stamp_json(opt, w, passes.size(), tail).c_str(),
              static_cast<unsigned long long>(b.verdicts.attempted),
              static_cast<unsigned long long>(b.verdicts.failed),
              b.verdicts.failed == 0 ? "true" : "false",
              metrics_json(ms).c_str());
  return 0;
}
