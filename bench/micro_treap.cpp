// Microbenchmarks for the interval treap - the data-structure-level version
// of the paper's access-history tradeoff: one treap operation covers a whole
// interval, while a hashmap history pays per location.
//
// Besides the google-benchmark suite, `--bulk-json FILE` runs a self-timed
// comparison of the per-record insert/query/erase loops against the bulk
// sorted-run API (DESIGN.md §10) and writes the results as JSON.  The
// enforced rows are gated: the run API must be at least kSpeedupBar x faster
// per interval or the process exits non-zero (the ci.sh perf lane runs
// this).  The informational reader_strided row replays fft's strided gather
// and also reports the store's bytes per stored interval.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/rng.hpp"
#include "treap/interval_treap.hpp"

using namespace pint;

namespace {

treap::Accessor acc(std::uint64_t sid) { return {{}, sid}; }

void BM_TreapInsertDisjoint(benchmark::State& state) {
  const std::uint64_t span = 1 << 20;
  const std::uint64_t slots = span / 64;  // disjoint 64-byte slots per treap
  std::uint64_t i = 0, total = 0;
  auto t = std::make_unique<treap::IntervalTreap>();
  for (auto _ : state) {
    if (i == slots) {
      // Address space exhausted: start a fresh treap so every timed insert
      // really is disjoint (the old `(i*64) % span` wrap silently turned
      // them into same-slot replacements once i passed `slots`).
      state.PauseTiming();
      t = std::make_unique<treap::IntervalTreap>();
      i = 0;
      state.ResumeTiming();
    }
    const std::uint64_t lo = i * 64;
    t->insert_writer(lo, lo + 63, acc(i), [](auto, auto, const auto&) {});
    ++i;
    ++total;
  }
  state.SetItemsProcessed(std::int64_t(total));
}
BENCHMARK(BM_TreapInsertDisjoint);

void BM_TreapInsertOverlapping(benchmark::State& state) {
  Xoshiro256 rng(7);
  const std::uint64_t span = 1 << 20;
  std::uint64_t i = 0;
  treap::IntervalTreap t;
  for (auto _ : state) {
    const std::uint64_t lo = rng.next_below(span);
    const std::uint64_t len = 1 + rng.next_below(512);
    t.insert_writer(lo, lo + len, acc(i), [](auto, auto, const auto&) {});
    ++i;
  }
  state.SetItemsProcessed(std::int64_t(i));
}
BENCHMARK(BM_TreapInsertOverlapping);

void BM_TreapQuery(benchmark::State& state) {
  treap::IntervalTreap t;
  const std::uint64_t n = std::uint64_t(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    t.insert_writer(i * 64, i * 64 + 63, acc(i), [](auto, auto, const auto&) {});
  }
  Xoshiro256 rng(9);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const std::uint64_t lo = rng.next_below(n * 64);
    t.query(lo, lo + 255, [&](auto, auto, const auto&) { ++hits; });
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_TreapQuery)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_TreapEraseRange(benchmark::State& state) {
  Xoshiro256 rng(11);
  treap::IntervalTreap t;
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Keep the tree populated: insert 4, erase a larger random range.
    for (int k = 0; k < 4; ++k, ++i) {
      const std::uint64_t lo = rng.next_below(1 << 20);
      t.insert_writer(lo, lo + 127, acc(i), [](auto, auto, const auto&) {});
    }
    const std::uint64_t lo = rng.next_below(1 << 20);
    t.erase_range(lo, lo + 1023);
  }
}
BENCHMARK(BM_TreapEraseRange);

/// The per-location alternative: same coverage recorded into a hashmap with
/// one entry per 8-byte granule (what C-RACER's shadow memory pays).
void BM_HashmapPerGranuleInsert(benchmark::State& state) {
  std::unordered_map<std::uint64_t, std::uint64_t> shadow;
  Xoshiro256 rng(13);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t lo = rng.next_below(1 << 20);
    for (std::uint64_t g = lo / 8; g <= (lo + 511) / 8; ++g) shadow[g] = i;
    ++i;
  }
  state.SetItemsProcessed(std::int64_t(i));
}
BENCHMARK(BM_HashmapPerGranuleInsert);

// --- bulk-run self-timed comparison (--bulk-json) --------------------------

struct Iv {
  treap::addr_t lo, hi;
};

constexpr std::size_t kRuns = 256;     // strand records per pass
constexpr std::size_t kRunLen = 64;    // intervals per record (sorted run)
constexpr std::uint64_t kLen = 64;     // bytes per interval
constexpr int kReps = 3;               // best-of for each timed pass
constexpr double kSpeedupBar = 2.0;    // enforced on the writer rows

/// Layout of one pass: run r holds kRunLen intervals of kLen bytes spaced
/// `gap` bytes apart (gap 0 = adjacent, the coalesced-record shape).
std::vector<std::vector<Iv>> make_runs(std::uint64_t gap) {
  std::vector<std::vector<Iv>> runs(kRuns);
  const std::uint64_t stride = kLen + gap;
  for (std::size_t r = 0; r < kRuns; ++r) {
    const std::uint64_t base = std::uint64_t(r) * kRunLen * stride;
    runs[r].reserve(kRunLen);
    for (std::size_t j = 0; j < kRunLen; ++j) {
      const std::uint64_t lo = base + std::uint64_t(j) * stride;
      runs[r].push_back({lo, lo + kLen - 1});
    }
  }
  return runs;
}

void populate(treap::IntervalTreap& t, const std::vector<std::vector<Iv>>& runs) {
  for (const auto& run : runs) {
    t.insert_writer_run(run.data(), run.size(), acc(1),
                        [](auto, auto, const auto&) {});
  }
}

double now_ns() {
  return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
}

struct Row {
  const char* name;
  double per_record_ns;  // ns per interval, best of kReps
  double bulk_ns;
  bool enforced;
  double bytes_per_interval = 0;  // reported when non-zero
  double speedup() const { return bulk_ns == 0 ? 0 : per_record_ns / bulk_ns; }
};

/// Times `body(treap)` over a freshly populated treap, best of kReps, and
/// returns ns per interval.  `sink` defeats dead-code elimination.
template <class Body>
double time_pass(const std::vector<std::vector<Iv>>& runs, Body&& body,
                 std::uint64_t* sink) {
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    treap::IntervalTreap t;
    populate(t, runs);
    const double t0 = now_ns();
    body(t, sink);
    const double ns = now_ns() - t0;
    if (rep == 0 || ns < best) best = ns;
  }
  return best / double(kRuns * kRunLen);
}

/// One-time correctness gate: per-record and run-API replacement passes must
/// leave identical treap contents and fire the same callback sequence.
bool bulk_matches_per_record(const std::vector<std::vector<Iv>>& runs) {
  treap::IntervalTreap a, b;
  populate(a, runs);
  populate(b, runs);
  std::vector<std::uint64_t> ca, cb;
  for (const auto& run : runs) {
    for (const Iv& iv : run) {
      a.insert_writer(iv.lo, iv.hi, acc(2), [&](auto lo, auto hi, const auto& w) {
        ca.push_back(lo);
        ca.push_back(hi);
        ca.push_back(w.sid);
      });
    }
    b.insert_writer_run(run.data(), run.size(), acc(2),
                        [&](auto lo, auto hi, const auto& w) {
                          cb.push_back(lo);
                          cb.push_back(hi);
                          cb.push_back(w.sid);
                        });
  }
  if (ca != cb) return false;
  std::vector<std::uint64_t> fa, fb;
  a.for_each([&](auto lo, auto hi, const auto& w) {
    fa.push_back(lo);
    fa.push_back(hi);
    fa.push_back(w.sid);
  });
  b.for_each([&](auto lo, auto hi, const auto& w) {
    fb.push_back(lo);
    fb.push_back(hi);
    fb.push_back(w.sid);
  });
  return fa == fb && a.check_invariants() && b.check_invariants();
}

Row bench_writer(const char* name, std::uint64_t gap) {
  const auto runs = make_runs(gap);
  std::uint64_t sink = 0;
  const double per_rec = time_pass(runs, [&](treap::IntervalTreap& t,
                                             std::uint64_t* s) {
    for (const auto& run : runs) {
      for (const Iv& iv : run) {
        t.insert_writer(iv.lo, iv.hi, acc(2),
                        [&](auto lo, auto, const auto&) { *s += lo; });
      }
    }
  }, &sink);
  const double bulk = time_pass(runs, [&](treap::IntervalTreap& t,
                                          std::uint64_t* s) {
    for (const auto& run : runs) {
      t.insert_writer_run(run.data(), run.size(), acc(2),
                          [&](auto lo, auto, const auto&) { *s += lo; });
    }
  }, &sink);
  std::printf("# sink=%llu\n", (unsigned long long)sink);
  return {name, per_rec, bulk, true};
}

Row bench_reader(const char* name, std::uint64_t gap) {
  const auto runs = make_runs(gap);
  auto resolve = [](const treap::Accessor& prev, const treap::Accessor&) {
    return (prev.sid & 1) != 0;  // deterministic winner rule
  };
  std::uint64_t sink = 0;
  const double per_rec = time_pass(runs, [&](treap::IntervalTreap& t,
                                             std::uint64_t* s) {
    for (const auto& run : runs) {
      for (const Iv& iv : run) {
        t.insert_reader(iv.lo, iv.hi, acc(2), resolve);
      }
    }
    *s += t.size();
  }, &sink);
  const double bulk = time_pass(runs, [&](treap::IntervalTreap& t,
                                          std::uint64_t* s) {
    for (const auto& run : runs) {
      t.insert_reader_run(run.data(), run.size(), acc(2), resolve);
    }
    *s += t.size();
  }, &sink);
  std::printf("# sink=%llu\n", (unsigned long long)sink);
  return {name, per_rec, bulk, true};
}

Row bench_erase(const char* name, std::uint64_t gap) {
  const auto runs = make_runs(gap);
  std::uint64_t sink = 0;
  const double per_rec = time_pass(runs, [&](treap::IntervalTreap& t,
                                             std::uint64_t* s) {
    for (const auto& run : runs) {
      for (const Iv& iv : run) t.erase_range(iv.lo, iv.hi);
    }
    *s += t.size();
  }, &sink);
  const double bulk = time_pass(runs, [&](treap::IntervalTreap& t,
                                          std::uint64_t* s) {
    for (const auto& run : runs) t.erase_run(run.data(), run.size());
    *s += t.size();
  }, &sink);
  std::printf("# sink=%llu\n", (unsigned long long)sink);
  return {name, per_rec, bulk, true};
}

/// fft's butterfly gather (informational): 2048 runs of 128 8-byte reads
/// at a 16 KiB stride, one accessor per run, grow an empty reader store to
/// 262,144 separate intervals - the reader-lane shape of the
/// pipelined-strided benchmark workload.
Row bench_reader_strided() {
  constexpr std::size_t kGatherRuns = 2048, kGatherLen = 128;
  constexpr std::uint64_t kStride = 16 << 10, kRead = 8;
  std::vector<std::vector<Iv>> runs(kGatherRuns);
  for (std::size_t r = 0; r < kGatherRuns; ++r) {
    for (std::size_t j = 0; j < kGatherLen; ++j) {
      const std::uint64_t lo = r * kRead + j * kStride;
      runs[r].push_back({lo, lo + kRead - 1});
    }
  }
  auto resolve = [](const treap::Accessor& prev, const treap::Accessor&) {
    return (prev.sid & 1) != 0;
  };
  const double n = double(kGatherRuns * kGatherLen);
  double best[2] = {0, 0}, bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int bulk = 0; bulk < 2; ++bulk) {
      treap::IntervalTreap t;
      const double t0 = now_ns();
      for (std::size_t r = 0; r < kGatherRuns; ++r) {
        const std::vector<Iv>& run = runs[r];
        if (bulk) {
          t.insert_reader_run(run.data(), run.size(), acc(r + 1), resolve);
        } else {
          for (const Iv& iv : run) {
            t.insert_reader(iv.lo, iv.hi, acc(r + 1), resolve);
          }
        }
      }
      const double ns = (now_ns() - t0) / n;
      if (rep == 0 || ns < best[bulk]) best[bulk] = ns;
      bytes = double(t.memory_bytes()) / double(t.size());
    }
  }
  Row row{"reader_strided", best[0], best[1], false};
  row.bytes_per_interval = bytes;
  return row;
}

int run_bulk_bench(const std::string& json_path) {
  if (!bulk_matches_per_record(make_runs(64)) ||
      !bulk_matches_per_record(make_runs(0))) {
    std::fprintf(stderr, "FAIL: run API diverges from per-record inserts\n");
    return 1;
  }
  std::vector<Row> rows;
  rows.push_back(bench_writer("writer_disjoint", 64));
  rows.push_back(bench_writer("writer_adjacent", 0));
  rows.push_back(bench_reader("reader_disjoint", 64));
  rows.push_back(bench_erase("erase_disjoint", 64));
  rows.push_back(bench_reader_strided());

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_treap_bulk\",\n");
  // Host stamp: perfgate refuses to compare snapshots from hosts with a
  // different hardware-thread count.
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"runs\": %zu, \"run_len\": %zu, \"interval_bytes\": %llu,\n",
               kRuns, kRunLen, (unsigned long long)kLen);
  std::fprintf(f, "  \"speedup_bar\": %.2f,\n  \"rows\": [\n", kSpeedupBar);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char bytes[64] = "";
    if (r.bytes_per_interval > 0) {
      std::snprintf(bytes, sizeof bytes, ", \"bytes_per_interval\": %.1f",
                    r.bytes_per_interval);
    }
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"per_record_ns_per_interval\": %.2f, "
                 "\"bulk_ns_per_interval\": %.2f, \"speedup\": %.2f, "
                 "\"enforced\": %s%s}%s\n",
                 r.name, r.per_record_ns, r.bulk_ns, r.speedup(),
                 r.enforced ? "true" : "false", bytes,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  bool ok = true;
  for (const Row& r : rows) {
    std::printf("%-16s per-record %8.2f ns/iv  bulk %8.2f ns/iv  speedup %.2fx%s\n",
                r.name, r.per_record_ns, r.bulk_ns, r.speedup(),
                r.enforced ? "" : "  (informational)");
    if (r.bytes_per_interval > 0) {
      std::printf("%-16s %.1f bytes per stored interval\n", r.name,
                  r.bytes_per_interval);
    }
    if (r.enforced && r.speedup() < kSpeedupBar) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx < %.2fx bar\n", r.name,
                   r.speedup(), kSpeedupBar);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--bulk-json FILE` (or =FILE) bypasses google-benchmark entirely: the
  // bulk-vs-per-record comparison is self-timed so it can enforce the CI bar
  // and emit the compact JSON the perf lane archives.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bulk-json") == 0 && i + 1 < argc) {
      return run_bulk_bench(argv[i + 1]);
    }
    if (std::strncmp(argv[i], "--bulk-json=", 12) == 0) {
      return run_bulk_bench(argv[i] + 12);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
