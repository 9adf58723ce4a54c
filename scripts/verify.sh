#!/usr/bin/env bash
# Tier-1 verification, exactly as CI runs it: an offline release build
# plus the quiet test suite. The workspace has zero registry
# dependencies (see DESIGN.md "Hermetic zero-dependency policy"), so
# this must pass with the network fully isolated — CARGO_NET_OFFLINE
# makes any accidental registry dependency fail fast with a clear
# error instead of hanging on an unreachable index.
#
# Usage:
#   scripts/verify.sh                 # tier-1: build + tests
#   scripts/verify.sh --bench-smoke   # tier-1 + one-iteration bench pass
#   scripts/verify.sh --lint          # tier-1 + warnings-as-errors build
#                                     #   + corpus lint (all three years)
#   scripts/verify.sh --chaos         # tier-1 + the fault-injection
#                                     #   suites + the chaos_drill demo
#   scripts/verify.sh --serve         # tier-1 + the serving stack:
#                                     #   serve unit tests, the TCP
#                                     #   e2e byte-identity suite, and
#                                     #   the HTTP robustness suite
#   scripts/verify.sh --serve-hardening  # tier-1 + the connection-
#                                     #   survivability suites: conn/
#                                     #   drain policy unit tests, the
#                                     #   hostile-traffic generator,
#                                     #   chaos-at-the-socket, and the
#                                     #   graceful-drain race
#   scripts/verify.sh --dataflow      # tier-1 + the CFG/dataflow
#                                     #   suites in isolation: analysis
#                                     #   unit tests, golden
#                                     #   diagnostics, and the
#                                     #   transform-invariance property
#                                     #   suite
#   scripts/verify.sh --scale         # tier-1 + the scale-out A/B
#                                     #   suite (single-shard
#                                     #   out-of-core training
#                                     #   bit-identical to the in-RAM
#                                     #   reference at 204 authors;
#                                     #   multi-shard worker
#                                     #   invariance), the 2000-author
#                                     #   out-of-core smoke, and the
#                                     #   20k profile-collision audit
#   scripts/verify.sh --strict        # tier-1 + clippy with
#                                     #   -D warnings across all
#                                     #   targets + cargo fmt --check
#   SYNTHATTR_WORKERS=1 scripts/verify.sh   # serial, for timing noise
#
# --bench-smoke additionally runs every bench target with minimal
# budgets (one warmup iteration, one sample; offline, seconds), so
# bench bit-rot fails locally instead of at the next measurement
# session.
#
# --lint rebuilds with RUSTFLAGS="-D warnings" and runs the
# lint_corpus example over the 2017/2018/2019 corpora; the example
# exits nonzero on any error-severity diagnostic (DESIGN.md §8).
#
# --chaos re-runs the two chaos suites by name (the crate-level
# property sweep in synthattr-faults and the end-to-end pipeline
# suite) and then the chaos_drill example, which prints the
# resilience accounting for a recoverable and a budget-exhausted
# build (DESIGN.md §9). Both suites also run under plain tier-1;
# the flag exists to exercise them in isolation with visible output.
#
# --dataflow re-runs the dataflow subsystem by name with visible
# output: the synthattr-analysis unit tests (CFG construction, the
# fixed-point framework and its four instantiations), the golden
# diagnostics suite (use-before-init / dead-store / reconciled
# unused-variable verdicts pinned), and the workspace-level
# dataflow_properties suite (verdicts preserved by all transforms and
# 50-step CT chains over all 9 pool seeds; cached per-item dataflow
# worker-invariant; DESIGN.md §13). All of these also run under plain
# tier-1.
#
# --scale re-runs the corpus scale-out stack by name with visible
# output (DESIGN.md §15): the workspace-level scale_out suite — at 204
# authors, single-shard `fit_sharded` over the on-disk ColumnStore
# must be bit-identical to `RandomForest::fit` on the equivalent
# in-RAM Dataset for workers 1/2/8, and 8-shard training must be
# worker-invariant and rerun-deterministic — plus the 2000-author
# out-of-core smoke (ignored under plain tier-1: streamed generation →
# columnar stores → sharded training → reservoir hold-out accuracy far
# above chance), the ml sharded-trainer unit invariants, and the
# seeded 20 000-profile collision audit in synthattr-gen. The
# non-ignored suites also run under plain tier-1.
#
# --strict is the workshop hygiene gate: clippy over every workspace
# target with warnings denied, then rustfmt in check mode. Both must
# stay clean — new code rides this stage in CI.
#
# --serve re-runs the serving suites by name with visible output: the
# synthattr-serve unit tests (parser, batcher, limiter, registry,
# routing), the real-TCP e2e suite whose core assertion is that served
# /attribute responses are byte-identical to the offline pipeline at
# every worker/client count in the matrix, and the HTTP robustness
# property suite (byte soup, truncation, oversize, slow-loris,
# pipelining — 4xx or clean close, never a panic or hang; DESIGN.md
# §11). All three also run under plain tier-1.
#
# --serve-hardening re-runs the connection-survivability stack by name
# with visible output (DESIGN.md §14): the clock-explicit conn/drain
# policy unit tests, the seeded hostile-traffic generator in
# synthattr-faults, the chaos-at-the-socket suite (64 slow-loris hold
# sockets while legit /attribute p95 stays within 5x unloaded; cuts
# land in the per-cause close counters), and the graceful-drain race
# (shutdown vs. pipelined keep-alive bursts at workers 1 and 4 drops
# zero responses, forced_closes == 0). All of these also run under
# plain tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
LINT=0
CHAOS=0
SERVE=0
SERVE_HARDENING=0
DATAFLOW=0
SCALE=0
STRICT=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --lint) LINT=1 ;;
    --chaos) CHAOS=1 ;;
    --serve) SERVE=1 ;;
    --serve-hardening) SERVE_HARDENING=1 ;;
    --dataflow) DATAFLOW=1 ;;
    --scale) SCALE=1 ;;
    --strict) STRICT=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

export CARGO_NET_OFFLINE=true

echo "== tier-1: cargo build --release (offline) ==" >&2
cargo build --release --offline

echo "== tier-1: cargo test -q (offline) ==" >&2
cargo test -q --offline

# Tier-1 covers the root package; the workspace flag pulls in every
# crate's unit and integration tests (pool, prop harness, forest
# worker-count determinism, ...).
echo "== extended: cargo test -q --workspace (offline) ==" >&2
cargo test -q --offline --workspace

if [[ "$BENCH_SMOKE" == "1" ]]; then
  export SYNTHATTR_BENCH_WARMUP_MS=1
  export SYNTHATTR_BENCH_MEASURE_MS=1
  export SYNTHATTR_BENCH_SAMPLES=1
  for b in frontend features forest transform tables analysis faults pipeline serve; do
    echo "== bench smoke: $b (one warmup iteration) ==" >&2
    cargo bench --offline -p synthattr-bench --bench "$b" > /dev/null
  done
  echo "== bench smoke: scale (24-author sweep) ==" >&2
  SYNTHATTR_SCALE_AUTHORS=24 \
    cargo bench --offline -p synthattr-bench --bench scale > /dev/null
fi

if [[ "$LINT" == "1" ]]; then
  echo "== lint: cargo build --release with -D warnings ==" >&2
  RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
  echo "== lint: corpus diagnostics (2017/2018/2019) ==" >&2
  cargo run --release --offline --example lint_corpus
fi

if [[ "$CHAOS" == "1" ]]; then
  echo "== chaos: crate-level property sweep (rates 0/5/20%) ==" >&2
  cargo test --offline -p synthattr-faults --test chaos_properties
  echo "== chaos: end-to-end pipeline suite ==" >&2
  cargo test --offline --test chaos_pipeline
  echo "== chaos: drill (resilience accounting demo) ==" >&2
  cargo run --release --offline --example chaos_drill
fi

if [[ "$DATAFLOW" == "1" ]]; then
  echo "== dataflow: analysis unit tests (cfg + fixed-point framework) ==" >&2
  cargo test --offline -p synthattr-analysis --lib cfg
  cargo test --offline -p synthattr-analysis --lib dataflow
  echo "== dataflow: golden diagnostics (new passes + reconciliation) ==" >&2
  cargo test --offline -p synthattr-analysis --test golden_diagnostics
  echo "== dataflow: transform/chain invariance + worker invariance ==" >&2
  cargo test --offline --test dataflow_properties
fi

if [[ "$SCALE" == "1" ]]; then
  echo "== scale: 204-author out-of-core A/B (bit-identity + worker invariance) ==" >&2
  cargo test --offline --test scale_out
  echo "== scale: 2000-author out-of-core smoke (streamed corpus -> colstore -> sharded forest) ==" >&2
  cargo test --offline --test scale_out -- --ignored
  echo "== scale: sharded-trainer + reservoir unit invariants (ml) ==" >&2
  cargo test --offline -p synthattr-ml --lib forest
  cargo test --offline -p synthattr-ml --lib cv
  echo "== scale: 20k profile-collision audit (gen) ==" >&2
  cargo test --offline -p synthattr-gen --lib twenty_thousand_profiles_rarely_collide
fi

if [[ "$STRICT" == "1" ]]; then
  echo "== strict: cargo clippy --workspace --all-targets -D warnings ==" >&2
  cargo clippy --offline --workspace --all-targets -- -D warnings
  echo "== strict: cargo fmt --check ==" >&2
  cargo fmt --check
fi

if [[ "$SERVE" == "1" ]]; then
  echo "== serve: unit suites (parser, batcher, limiter, registry, routing) ==" >&2
  cargo test --offline -p synthattr-serve --lib
  echo "== serve: TCP e2e byte-identity suite ==" >&2
  cargo test --offline --test serve_e2e
  echo "== serve: HTTP robustness property suite ==" >&2
  cargo test --offline -p synthattr-serve --test http_properties
fi

if [[ "$SERVE_HARDENING" == "1" ]]; then
  echo "== serve-hardening: connection policy + drain bookkeeping units ==" >&2
  cargo test --offline -p synthattr-serve --lib conn
  cargo test --offline -p synthattr-serve --lib drain
  echo "== serve-hardening: hostile-traffic generator (seeded scripts) ==" >&2
  cargo test --offline -p synthattr-faults --lib traffic
  echo "== serve-hardening: chaos at the socket (loris/staller/dripper/reset) ==" >&2
  cargo test --offline --test serve_chaos
  echo "== serve-hardening: graceful drain vs pipelined bursts ==" >&2
  cargo test --offline --test serve_drain
fi

echo "verify: OK" >&2
