#!/usr/bin/env bash
# CI gate: format, unsafe/waist greps, build, full test suite, lints-as-errors,
# docs, one paper-printer smoke, then two release-binary smokes (a metrics
# snapshot through `metrics-lint`, 64 seeds of the fuzz corpus). Every other
# CLI contract is a `cargo test` in `tests/cli.rs`; nothing here needs
# python3. Nothing here reads a wall clock: `benchmark/` measures.
# Tier-1 is `cargo test -q`, which `default-members` makes the whole
# workspace. Pass --offline (default here) since the build is vendored.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
# Unsafe gate: first-party `unsafe` lives in exactly two files — the
# rank-thread pool's lifetime erasure and the CLI's SIGTERM FFI — and every
# other crate root still forbids it outright (`dampi-mpi` denies it, with
# the one `#[allow]` on `pool`).
allowed=$'crates/mpi/src/pool.rs\nsrc/bin/dampi-cli.rs'
found="$(grep -rlE 'unsafe[[:space:]]+(\{|impl|fn)' --include='*.rs' \
    crates src tests examples benchmark/src benchmark/tests | sort)"
if [ "$found" != "$allowed" ]; then
  echo "ci: unsafe code outside the allowed files; found in:" >&2
  echo "$found" >&2
  exit 1
fi
for root in crates/*/src/lib.rs src/lib.rs benchmark/src/lib.rs; do
  want='#![forbid(unsafe_code)]'
  [ "$root" = crates/mpi/src/lib.rs ] && want='#![deny(unsafe_code)]'
  grep -qxF "$want" "$root" || { echo "ci: $root lacks $want" >&2; exit 1; }
done
if [ "$(grep -c 'allow(unsafe_code)' crates/mpi/src/lib.rs)" -ne 1 ]; then
  echo "ci: dampi-mpi must allow unsafe_code on exactly one module (pool)" >&2
  exit 1
fi
# Waist gate: the typed completion and probe calls are provided by the `Mpi`
# trait over `complete`/`probe_for`; no implementor restates one.
found="$(grep -rlE 'fn (waitany|testany|waitsome|iprobe)\(' --include='*.rs' crates src tests examples)"
[ "$found" = crates/mpi/src/proc_api.rs ] || { echo "ci: typed completion/probe calls overridden in: $found" >&2; exit 1; }
cargo build --release --offline --workspace
cargo test -q --offline
# Flake guard: the first three asserted what only a lucky thread schedule
# used to provide (a wildcard-match bias; adlb's task dealing); they now
# take those runs on the cooperative scheduler and must pass every time.
# The `lost_wakeup` cases would show a missed wake-up as a rare watchdog
# timeout, and `wakeups` a stray park or notify, not a steady failure.
for _ in $(seq 20); do
  cargo test -q --offline --test cross_tool native_bias_masks_what_verifiers_find > /dev/null
  cargo test -q --offline -p dampi-workloads --lib \
      alternate_schedule_deadlock_hidden_natively_under_bias > /dev/null
  cargo test -q --offline -p dampi-analysis --test workloads \
      adlb_oblivious_merges_beyond_exact > /dev/null
  cargo test -q --offline -p dampi-mpi --test runtime_semantics lost_wakeup > /dev/null
  cargo test -q --offline --test wakeups > /dev/null
done
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
# Printer smoke: the paper-figure printers are plain `fn main()`s that print
# counts and virtual time; Fig. 8's cells are pinned by `cargo test`
# (`fig8_matmul_interleavings_under_bounded_mixing`), this checks the bench
# target itself still builds and runs.
DAMPI_BENCH_FAST=1 cargo bench --offline -p dampi-bench --bench fig8_bounded_matmul
# Metrics smoke: snapshot the racers campaign at two worker counts, then
# lint schema + invariants and assert the semantic sections are
# byte-identical (the cross---jobs determinism contract, end to end).
MDIR="$(mktemp -d)"
trap 'rm -rf "$MDIR"' EXIT
./target/release/dampi-cli verify racers --np 4 --jobs 1 --metrics "$MDIR/m1.json" > /dev/null
./target/release/dampi-cli verify racers --np 4 --jobs 4 --metrics "$MDIR/m4.json" \
    --trace "$MDIR/m4.trace.jsonl" > /dev/null
./target/release/metrics-lint "$MDIR/m1.json" "$MDIR/m4.json" --expect-semantic-match
# Fuzz smoke: `tests/cli.rs` regenerates 32 seeds of the committed corpus
# and scans all 256 verdicts; the release build affords 64.
./target/release/dampi-cli fuzz --seed 0 --count 64 | cmp - <(head -64 corpus/fuzz_verdicts.jsonl)
echo "ci: all green"
