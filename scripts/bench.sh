#!/usr/bin/env bash
# Perf-trajectory baseline: runs the `forest`, `features`, and
# `analysis` bench targets through `synthattr_bench::harness` and
# writes one JSON line
# per benchmark into BENCH_forest.json (the harness prints JSON on
# stdout, human progress on stderr — see DESIGN.md "Benchmarking").
#
# The `faults` target sweeps the chaos proxy at 0/5/20% fault rates
# against the bare simulator and lands in BENCH_faults.json, so the
# retry/validation overhead has its own trajectory file.
#
# The `pipeline` target times whole year-pipeline builds through the
# node-cached frontend: a frontend-heavy build fault-free and under
# chaos@20% (`cached/plain`, `cached/chaos20`), and a chain-heavy
# build under the recoverable 20% fault profile (`cached/chain`).
# Lands in BENCH_pipeline.json; its JSON lines carry
# `allocs_per_iter`/`alloc_bytes_per_iter` from the bench binary's
# counting allocator.
#
# The `serve` target spins up a real `synthattr-serve` server on a
# loopback socket and drives it with seeded keep-alive clients: serial
# and 8-way-concurrent /attribute latency (p50/p95 per request), a
# sustained req/s line, the /healthz routing floor, and the saturating
# sweep — 1/8/64/256 clients against the fixed 4-worker rotation pool,
# clean and with 16 slow-loris connections held open in the background
# (`sweep/cN` / `sweep+loris16/cN`), so the survivability overhead has
# its own trajectory. Lands in BENCH_serve.json.
#
# The `scale` target sweeps the out-of-core corpus path at 204 /
# 2 000 / 20 000 authors — streamed generation → columnar feature
# stores → sharded forest training — and lands one-shot wall-time +
# peak-heap (`peak_alloc_bytes`) rows plus an accuracy-vs-scale row
# per cell in BENCH_scale.json. The summary prints the per-cell
# build/train times, peak heap, and accuracy curve.
#
# Usage:
#   scripts/bench.sh                  # full budgets, writes BENCH_forest.json,
#                                     #   BENCH_faults.json, BENCH_pipeline.json,
#                                     #   BENCH_serve.json, BENCH_scale.json
#   scripts/bench.sh scale            # only the scale sweep (minutes)
#   SYNTHATTR_BENCH_MEASURE_MS=500 scripts/bench.sh   # quicker pass
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
OUT="${SYNTHATTR_BENCH_OUT:-BENCH_forest.json}"
FAULTS_OUT="${SYNTHATTR_BENCH_FAULTS_OUT:-BENCH_faults.json}"
PIPELINE_OUT="${SYNTHATTR_BENCH_PIPELINE_OUT:-BENCH_pipeline.json}"
SERVE_OUT="${SYNTHATTR_BENCH_SERVE_OUT:-BENCH_serve.json}"
SCALE_OUT="${SYNTHATTR_BENCH_SCALE_OUT:-BENCH_scale.json}"

scale_sweep() {
  echo "== bench: scale (204 / 2k / 20k author out-of-core sweep) ==" >&2
  cargo bench --offline -p synthattr-bench --bench scale | grep '^{' > "$SCALE_OUT"

  scale_field() {
    grep "\"bench\":\"$1\"" "$SCALE_OUT" | sed -E "s/.*\"$2\":([0-9.]+).*/\1/" | head -n 1
  }
  for a in 204 2000 20000; do
    build=$(scale_field "build/$a" "median_ns")
    train=$(scale_field "train/$a" "median_ns")
    bpk=$(scale_field "build/$a" "peak_alloc_bytes")
    tpk=$(scale_field "train/$a" "peak_alloc_bytes")
    acc=$(scale_field "accuracy/$a" "accuracy")
    if [[ -n "$build" && -n "$train" && -n "$acc" ]]; then
      awk -v a="$a" -v build="$build" -v train="$train" \
          -v bpk="${bpk:-0}" -v tpk="${tpk:-0}" -v acc="$acc" 'BEGIN {
        printf "scale %-5d authors: build %.2f s (peak %.0f MiB), train %.2f s (peak %.0f MiB), accuracy %.3f\n",
          a, build / 1e9, bpk / 1048576, train / 1e9, tpk / 1048576, acc
      }' >&2
    fi
  done
  echo "wrote $(wc -l < "$SCALE_OUT") benchmark lines to $SCALE_OUT" >&2
}

if [[ "${1:-}" == "scale" ]]; then
  scale_sweep
  exit 0
fi

: > "$OUT"
for target in forest features analysis; do
  echo "== bench: $target ==" >&2
  # Keep only the harness's JSON lines; cargo chatter goes to stderr
  # already, this guards against any stray stdout.
  cargo bench --offline -p synthattr-bench --bench "$target" | grep '^{' >> "$OUT"
done

echo "== bench: faults (chaos proxy overhead) ==" >&2
cargo bench --offline -p synthattr-bench --bench faults | grep '^{' > "$FAULTS_OUT"

echo "== bench: pipeline (whole builds through the cached frontend) ==" >&2
# End-to-end pipeline builds run ~100 ms/iteration, so the harness
# defaults (300 ms warmup / 2 s measure) yield too few samples for
# stable medians; give this target a larger budget unless the caller
# already set one.
SYNTHATTR_BENCH_WARMUP_MS="${SYNTHATTR_BENCH_WARMUP_MS:-2000}" \
SYNTHATTR_BENCH_MEASURE_MS="${SYNTHATTR_BENCH_MEASURE_MS:-12000}" \
  cargo bench --offline -p synthattr-bench --bench pipeline | grep '^{' > "$PIPELINE_OUT"

echo "== bench: serve (HTTP attribution latency + throughput) ==" >&2
cargo bench --offline -p synthattr-bench --bench serve | grep '^{' > "$SERVE_OUT"

scale_sweep

faults_median() {
  grep "\"group\":\"faults\"" "$FAULTS_OUT" | grep "\"bench\":\"$1\"" \
    | sed -E 's/.*"median_ns":([0-9.]+).*/\1/' | head -n 1
}

bare=$(faults_median "nct/bare")
r20=$(faults_median "nct/rate20")
if [[ -n "$bare" && -n "$r20" ]]; then
  awk -v bare="$bare" -v r20="$r20" 'BEGIN {
    printf "faults nct/10: bare %.2f ms vs chaos@20%% %.2f ms -> %.2fx overhead\n",
      bare / 1e6, r20 / 1e6, r20 / bare
  }' >&2
fi
serve_field() {
  grep "\"bench\":\"$1\"" "$SERVE_OUT" | sed -E "s/.*\"$2\":([0-9.]+).*/\1/" | head -n 1
}

p50=$(serve_field "attribute/concurrent8" "median_ns")
rps=$(serve_field "attribute/throughput" "req_per_s")
if [[ -n "$p50" && -n "$rps" ]]; then
  awk -v p50="$p50" -v rps="$rps" 'BEGIN {
    printf "serve /attribute: p50 %.2f ms at 8 clients, %.0f req/s sustained\n",
      p50 / 1e6, rps
  }' >&2
fi

# Saturation sweep: clean vs hostile-background throughput per cell,
# and the knee (the client count where clean throughput peaks).
knee_clients=""
knee_rps=0
for cell in 1 8 64 256; do
  clean=$(serve_field "sweep/c$cell/throughput" "req_per_s")
  loris=$(serve_field "sweep+loris16/c$cell/throughput" "req_per_s")
  if [[ -n "$clean" && -n "$loris" ]]; then
    awk -v c="$cell" -v clean="$clean" -v loris="$loris" 'BEGIN {
      printf "serve sweep c%-3d: %.0f req/s clean, %.0f req/s with 16 loris (%.2fx)\n",
        c, clean, loris, loris / clean
    }' >&2
    if awk -v a="$clean" -v b="$knee_rps" 'BEGIN { exit !(a > b) }'; then
      knee_rps="$clean"
      knee_clients="$cell"
    fi
  fi
done
if [[ -n "$knee_clients" ]]; then
  awk -v c="$knee_clients" -v rps="$knee_rps" 'BEGIN {
    printf "serve sweep knee: throughput peaks at %d clients (%.0f req/s)\n", c, rps
  }' >&2
fi

echo "wrote $(wc -l < "$OUT") benchmark lines to $OUT" >&2
echo "wrote $(wc -l < "$FAULTS_OUT") benchmark lines to $FAULTS_OUT" >&2
echo "wrote $(wc -l < "$PIPELINE_OUT") benchmark lines to $PIPELINE_OUT" >&2
echo "wrote $(wc -l < "$SERVE_OUT") benchmark lines to $SERVE_OUT" >&2
