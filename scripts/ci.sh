#!/usr/bin/env bash
# CI driver: tier-1 suite plus the sanitizer lanes.
#
#   scripts/ci.sh            # all lanes, in this order: tier1 tsan asan
#                            # faults telemetry perf bulkapply locks simd
#                            # perfgate
#   scripts/ci.sh tier1      # plain Release build + full ctest
#   scripts/ci.sh tsan       # -DPINT_SAN=thread build + ctest -L tsan
#   scripts/ci.sh asan       # -DPINT_SAN=address build + ctest -L asan
#   scripts/ci.sh faults     # fault-injection suite (ctest -L faults) in
#                            # the plain AND the TSan builds
#   scripts/ci.sh telemetry  # telemetry suite + traced fig2 run with JSON
#                            # validation, then a -DPINT_TELEMETRY=OFF build
#                            # proving the zero-cost path still compiles
#   scripts/ci.sh perf       # perf smoke: micro_access (fails below the 3x
#                            # fast-path bar or the sort cursor-rate bar)
#                            # and micro_treap --bulk-json (fails below the
#                            # 2x bulk-run bar), both writing their JSON to
#                            # a temporary directory (the committed
#                            # BENCH_*.json stay untouched); plus a tiny
#                            # fig1_overview run
#   scripts/ci.sh bulkapply  # bulk-run equivalence suite (ctest -L
#                            # bulkapply) in the plain AND the TSan builds
#   scripts/ci.sh locks      # lockset matrix suite (ctest -L locks):
#                            # guarded/unguarded twin kernels through every
#                            # detector, in the plain AND the TSan builds
#   scripts/ci.sh simd       # hot-path knob suite (ctest -L simd):
#                            # SIMD-finalize bit-identity, in the
#                            # portable build AND a -DPINT_MARCH_NATIVE=ON
#                            # build (native vs scalar-fallback codegen)
#   scripts/ci.sh perfgate   # perf-regression gate: re-runs both micro
#                            # benches and the fig3 sweep, and fails on a
#                            # geomean regression vs the committed
#                            # BENCH_*.json beyond its tolerance, any
#                            # enforced treap row under its bar, or a
#                            # snapshot from a host with a different
#                            # hardware-thread count (scripts/perfgate.py
#                            # via ctest -L perfgate)
#
# Each lane builds into its own directory (build/, build-tsan/, build-asan/,
# build-notelem/) so switching lanes never churns another lane's objects.  A
# sanitizer report exits the test non-zero, so a green lane means zero
# reports.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
LANES=("$@")
if [ ${#LANES[@]} -eq 0 ]; then
  LANES=(tier1 tsan asan faults telemetry perf bulkapply locks simd perfgate)
fi

build_dir() {
  local dir="$1" san="$2"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DPINT_SAN="$san"
  cmake --build "$dir" -j "$JOBS"
}

run_lane() {
  local lane="$1" dir san label
  case "$lane" in
    tier1) dir=build;      san="";        label="" ;;
    tsan)  dir=build-tsan; san=thread;    label="-L tsan" ;;
    asan)  dir=build-asan; san=address;   label="-L asan" ;;
    faults)
      # The fault suite must give the same verdict with and without the
      # race detector watching the robustness machinery itself.
      echo "=== lane: faults (build dirs: build, build-tsan) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L faults)
      build_dir build-tsan thread
      (cd build-tsan && ctest --output-on-failure -L faults)
      return
      ;;
    bulkapply)
      # Bit-identical run-API equivalence must hold under TSan too: the
      # batched lane consumption defers the RECYCLE decrement, so the TSan
      # pass is what certifies the reordered release sequence.
      echo "=== lane: bulkapply (build dirs: build, build-tsan) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L bulkapply)
      build_dir build-tsan thread
      (cd build-tsan && ctest --output-on-failure -L bulkapply)
      return
      ;;
    locks)
      # Lock-aware detection must hold under TSan too: the lockset table's
      # id->set chunk publication and the intersects() pair memo are read
      # lock-free from the history lanes, and TSan is what certifies those
      # release/acquire pairs.
      echo "=== lane: locks (build dirs: build, build-tsan) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L locks)
      build_dir build-tsan thread
      (cd build-tsan && ctest --output-on-failure -L locks)
      return
      ;;
    simd)
      # The vectorized finalize must be bit-identical to the scalar merge
      # under BOTH codegen flavors: the portable default build (runtime AVX2
      # dispatch only) and a -march=native build (the compiler may also
      # auto-vectorize the scalar twin - the knob matrix still has to agree).
      echo "=== lane: simd (build dirs: build, build-native) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L simd)
      cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release \
        -DPINT_MARCH_NATIVE=ON
      cmake --build build-native -j "$JOBS"
      (cd build-native && ctest --output-on-failure -L simd)
      return
      ;;
    telemetry)
      echo "=== lane: telemetry (build dirs: build, build-notelem) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L telemetry)
      # End-to-end: a traced figure run must emit machine-readable JSON.
      local tdir
      tdir="$(mktemp -d)"
      ./build/bench/fig2_breakdown --kernel mmul --scale 0.5 \
        --trace-out="$tdir/trace.json" --stats-json="$tdir/stats.json"
      local nfiles=0
      for f in "$tdir"/*.json; do
        python3 -m json.tool "$f" > /dev/null
        nfiles=$((nfiles + 1))
      done
      echo "validated $nfiles telemetry JSON file(s)"
      [ "$nfiles" -ge 2 ]  # at least one trace + one metrics file
      rm -rf "$tdir"
      # The zero-cost contract: everything still builds and the telemetry
      # suite's OFF-branch assertions pass with the layer compiled out.
      cmake -B build-notelem -S . -DCMAKE_BUILD_TYPE=Release \
        -DPINT_TELEMETRY=OFF
      cmake --build build-notelem -j "$JOBS"
      (cd build-notelem && ctest --output-on-failure -L telemetry)
      return
      ;;
    perf)
      echo "=== lane: perf (build dir: build) ==="
      build_dir build ""
      # The JSON goes to a temporary directory: the committed BENCH_*.json
      # are the baselines perfgate compares against, rewritten only by the
      # deliberate rebaseline command in README "Profiling a run".
      local pdir
      pdir="$(mktemp -d)"
      # micro_access enforces the access-path acceptance bars itself: exits
      # non-zero if the cursor fast path is under 3x the slow route or sort's
      # cursor hit rate is at or below 0.5.  Its JSON has the shape of
      # BENCH_access.json (ns/access, hit rates, geo-mean overhead).
      ./build/bench/micro_access --json "$pdir/BENCH_access.json"
      python3 -m json.tool "$pdir/BENCH_access.json" > /dev/null
      echo "validated BENCH_access.json"
      # micro_treap --bulk-json enforces the bulk sorted-run bar itself:
      # exits non-zero if the run API is under 2x the per-record loop on the
      # disjoint or adjacent writer workload, or if the two paths diverge.
      ./build/bench/micro_treap --bulk-json "$pdir/BENCH_treap.json"
      python3 -m json.tool "$pdir/BENCH_treap.json" > /dev/null
      echo "validated BENCH_treap.json"
      rm -rf "$pdir"
      # Smoke the end-to-end overhead figure at a tiny scale: catches a
      # detector that silently stopped taking the fast path in the full
      # harness (the run aborts on verification failure or false races).
      ./build/bench/fig1_overview --kernel mmul --scale 0.25 --reps 1
      return
      ;;
    perfgate)
      echo "=== lane: perfgate (build dir: build) ==="
      cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPINT_SAN="" \
        -DPINT_PERFGATE=ON
      cmake --build build -j "$JOBS"
      (cd build && ctest --output-on-failure -L perfgate)
      return
      ;;
    *) echo "unknown lane: $lane" >&2; exit 2 ;;
  esac
  echo "=== lane: $lane (build dir: $dir) ==="
  build_dir "$dir" "$san"
  # shellcheck disable=SC2086  # $label is intentionally word-split
  (cd "$dir" && ctest --output-on-failure $label)
}

for lane in "${LANES[@]}"; do
  run_lane "$lane"
done
echo "=== all lanes green ==="
