#!/usr/bin/env bash
# Tier-1 verification, exactly as CI runs it: an offline release build
# plus the quiet test suite. The workspace has zero registry
# dependencies (see DESIGN.md "Hermetic zero-dependency policy"), so
# this must pass with the network fully isolated — CARGO_NET_OFFLINE
# makes any accidental registry dependency fail fast with a clear
# error instead of hanging on an unreachable index.
#
# Usage:
#   scripts/verify.sh                 # tier-1: build + tests, then a
#                                     #   release build of e2ebench
#   scripts/verify.sh --lint          # tier-1 + warnings-as-errors build
#                                     #   + corpus lint (all three years)
#   scripts/verify.sh --chaos         # tier-1 + the fault-injection
#                                     #   suites + the chaos_drill demo
#   scripts/verify.sh --scale         # tier-1 + the scale-out A/B
#                                     #   suite (single-shard
#                                     #   out-of-core training
#                                     #   bit-identical to the in-RAM
#                                     #   reference at 204 authors;
#                                     #   multi-shard worker
#                                     #   invariance), the 2000-author
#                                     #   out-of-core smoke, the
#                                     #   column store's unit tests,
#                                     #   pooled chunk generation's
#                                     #   worker invariance, and the
#                                     #   20k profile-collision audit
#   scripts/verify.sh --strict        # tier-1 + clippy with
#                                     #   -D warnings across all
#                                     #   targets + cargo fmt --check
#                                     #   + rustdoc with -D warnings
#                                     #   + the serve crate's tests
#                                     #   and the live-socket serve
#                                     #   suites in a release build
#                                     #   + the layout scan fuzz and the
#                                     #   split-search equivalence
#                                     #   property at 200,000 cases
#                                     #   each in a release build
#                                     #   + the transform fingerprint
#                                     #   property at 50,000 cases
#                                     #   in a release build
#                                     #   + paper-scale `repro all`
#                                     #   against repro_output.txt
#   SYNTHATTR_WORKERS=1 scripts/verify.sh   # serial, for timing noise
#
# Each flag adds a check that plain tier-1 does not run; every test
# suite in the workspace already runs under tier-1. Performance is
# measured by the end-to-end benchmark (BENCHMARK.json, e2ebench/).
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
# the drill is what the flag adds.
#
# --scale re-runs the corpus scale-out stack by name with visible
# output (DESIGN.md §15): the workspace-level scale_out suite — at 204
# authors, single-shard `fit_sharded` over the on-disk ColumnStore
# must be bit-identical to `RandomForest::fit` on the equivalent
# in-RAM Dataset for workers 1/2/8, and 8-shard training must be
# worker-invariant and rerun-deterministic — plus the 2000-author
# out-of-core smoke (ignored under plain tier-1: streamed generation →
# columnar stores → sharded training → reservoir hold-out accuracy far
# above chance), the ml sharded-trainer unit invariants, the column
# store's unit tests (round trips, corruption errors, and a rewrite at
# the same path replacing the old store instead of truncating it), the
# gen test that pooled chunk generation at 1, 2 and 8 workers equals a
# serial loop over the same samples, and the seeded 20 000-profile
# collision audit in synthattr-gen. The non-ignored suites also run
# under plain tier-1.
#
# --strict is the workshop hygiene gate: clippy over every workspace
# target with warnings denied, rustfmt in check mode, then rustdoc
# with warnings denied, so a deleted or private item cannot leave a
# dangling intra-doc link. All three must stay clean — new code rides
# this stage in CI. It then runs synthattr-serve's tests in a release
# build: that crate holds the workspace's one `unsafe` block (the
# poll(2) call in its readiness module), and a release build tests it
# as it ships, without the debug assertions and overflow checks of the
# test profile. The root package's live-socket suites (serve_e2e,
# serve_chaos, serve_drain) follow in release too: they are what drive
# the reactor and the graceful drain over real TCP. Then it runs the
# layout scan's fuzz property (the single-pass scan against the
# multi-pass reference, DESIGN.md §12.2) in release at 200,000 cases
# instead of the tier-1 4,096, and the split-search equivalence
# property (the rank-encoded split search against the naive reference
# splitter, DESIGN.md §7) in release at 200,000 cases instead of the
# tier-1 256. Next comes the transform
# property transforms_are_analyzer_clean_and_fingerprint_stable (every
# simulator output keeps its seed's semantic fingerprint, DESIGN.md
# §8.3) in release at 50,000 cases instead of the tier-1 48, about
# 20 s: a release build compiles out the transformer's own debug
# semantics gate, so this is the one release-mode check of that
# invariant. Last, it runs the paper-scale `target/release/repro all`
# (about 1 m 10 s on 2 vCPU) and compares its stdout with
# repro_output.txt byte for byte, printing the first differing lines
# on a mismatch: the whole-output check that a change meant to keep
# every table unchanged needs.
set -euo pipefail
cd "$(dirname "$0")/.."

LINT=0
CHAOS=0
SCALE=0
STRICT=0
for arg in "$@"; do
  case "$arg" in
    --lint) LINT=1 ;;
    --chaos) CHAOS=1 ;;
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

# The benchmark (BENCHMARK.json, e2ebench/) is its own workspace that
# imports the crates' public API. Building it here makes a library
# change that breaks one of its imports fail verify, not the benchmark
# run.
echo "== extended: cargo build --release e2ebench (offline) ==" >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml

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

if [[ "$SCALE" == "1" ]]; then
  echo "== scale: 204-author out-of-core A/B (bit-identity + worker invariance) ==" >&2
  cargo test --offline --test scale_out
  echo "== scale: 2000-author out-of-core smoke (streamed corpus -> colstore -> sharded forest) ==" >&2
  cargo test --offline --test scale_out -- --ignored
  echo "== scale: sharded-trainer + reservoir unit invariants (ml) ==" >&2
  cargo test --offline -p synthattr-ml --lib forest
  cargo test --offline -p synthattr-ml --lib cv
  echo "== scale: column store unit tests (ml) ==" >&2
  cargo test --offline -p synthattr-ml --lib colstore
  echo "== scale: pooled chunk generation is worker-invariant (gen) ==" >&2
  cargo test --offline -p synthattr-gen --lib chunks_match_a_serial_loop_at_any_worker_count
  echo "== scale: 20k profile-collision audit (gen) ==" >&2
  cargo test --offline -p synthattr-gen --lib twenty_thousand_profiles_rarely_collide
fi

if [[ "$STRICT" == "1" ]]; then
  echo "== strict: cargo clippy --workspace --all-targets -D warnings ==" >&2
  cargo clippy --offline --workspace --all-targets -- -D warnings
  echo "== strict: cargo fmt --check ==" >&2
  cargo fmt --check
  echo "== strict: cargo doc --no-deps --workspace -D warnings ==" >&2
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
  echo "== strict: cargo test --release -p synthattr-serve ==" >&2
  cargo test --release --offline -p synthattr-serve
  echo "== strict: live-socket serve suites (release) ==" >&2
  cargo test --release --offline --test serve_e2e --test serve_chaos --test serve_drain
  echo "== strict: layout scan fuzz, 200000 cases (release) ==" >&2
  SYNTHATTR_PROP_CASES=200000 cargo test --release --offline -p synthattr-features --lib \
    scan_matches_the_multi_pass_reference
  echo "== strict: split-search equivalence, 200000 cases (release) ==" >&2
  SYNTHATTR_PROP_CASES=200000 cargo test --release --offline -p synthattr-ml --lib \
    optimized_split_matches_reference
  echo "== strict: transform fingerprint invariant, 50000 cases (release) ==" >&2
  SYNTHATTR_PROP_CASES=50000 cargo test --release --offline --test transform_properties \
    transforms_are_analyzer_clean_and_fingerprint_stable
  echo "== strict: paper-scale repro all vs repro_output.txt ==" >&2
  fresh="$(mktemp)"
  trap 'rm -f "$fresh"' EXIT
  ./target/release/repro all > "$fresh"
  if ! cmp -s repro_output.txt "$fresh"; then
    echo "repro all differs from repro_output.txt; first differing lines:" >&2
    diff repro_output.txt "$fresh" | head -n 20 >&2 || true
    exit 1
  fi
fi

echo "verify: OK" >&2
