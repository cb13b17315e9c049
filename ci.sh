#!/usr/bin/env bash
# CI gate: format, unsafe/waist greps, build, full test suite, a 20x loop
# over the tests whose outcome could vary with park/wake or replay-worker
# timing, lints-as-errors, docs (the vendored JSON codec's format, lints
# and docs by name too), then one release-binary smoke (64 seeds of the
# fuzz corpus). Every other CLI
# contract — the metrics snapshot at `--jobs 1` and `4`, refolded from its
# trace with its ledger checked, included — is a `cargo test` in
# `tests/cli.rs`, and every cell of the paper's figures and tables one in
# `tests/paper.rs`; nothing here needs python3. Nothing here reads a wall
# clock: `benchmark/` measures.
# Tier-1 is `cargo test -q`, which `default-members` makes the whole
# workspace. Pass --offline (default here) since the build is vendored.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
# Unsafe gate: first-party `unsafe` lives in exactly three files — the
# rank-thread pool's lifetime erasure, the CLI's SIGTERM FFI and the
# allocation census's counting allocator (a test) — and every other crate
# root still forbids it outright (`dampi-mpi` denies it, with the one
# `#[allow]` on `pool`).
allowed=$'crates/mpi/src/pool.rs\nsrc/bin/dampi-cli.rs\ntests/alloc_census.rs'
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
# Waist gate: the `Mpi` trait provides the typed completion and probe calls
# over `complete`/`probe_for`, and the six rank-local queries over `pmpi`;
# no implementor restates one. The query names are anchored at a bare
# `fn`, so an inherent `pub fn now` (the central clock's) does not match.
found="$(grep -rlE 'fn (waitany|testany|waitsome|iprobe)\(|^[[:space:]]*fn (world_rank|world_size|comm_rank|comm_size|translate_rank|now)\(' \
    --include='*.rs' crates src tests examples)"
[ "$found" = crates/mpi/src/proc_api.rs ] || { echo "ci: provided Mpi calls overridden in: $found" >&2; exit 1; }
cargo build --release --offline --workspace
cargo test -q --offline
# Flake guard: every replay runs on the runtime's turn token, so message
# matching no longer follows rank-thread timing. Two things still vary
# from run to run. Parks and wakes do: a lost notify shows as a rare
# watchdog timeout in a `lost_wakeup` case, a stray park or notify in
# `wakeups`. And which replay worker finishes first does (`--jobs 4`
# speculation, worker processes): the journal's racers kill-and-resume,
# the CLI's pruned racers cut at every commit, the ISP driver-parity tests
# and the CLI's ISP cases would show a mis-served or mis-ordered commit
# only now and then.
for _ in $(seq 20); do
  cargo test -q --offline -p dampi-mpi --test runtime_semantics lost_wakeup > /dev/null
  cargo test -q --offline --test wakeups > /dev/null
  cargo test -q --offline -p dampi-core --test journal racers_killed_at_every_commit > /dev/null
  cargo test -q --offline --test cli racers_pruned_and_cut_at_every_commit > /dev/null
  cargo test -q --offline --test isp_drivers > /dev/null
  cargo test -q --offline --test cli isp > /dev/null
done
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
# The vendored JSON codec by name: every cache entry, journal record, shard
# frame and report goes through it. Its three crates are the only workspace
# members under `vendor/` (clippy lints members only), so these run from
# the workspace and no `Cargo.lock` appears under `vendor/`.
rustfmt --check --edition 2021 vendor/serde*/src/lib.rs
cargo clippy --offline -p serde -p serde_derive -p serde_json -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p serde -p serde_json
# Fuzz smoke: `tests/cli.rs` regenerates 32 seeds of the committed corpus
# and scans all 256 verdicts; the release build affords 64.
./target/release/dampi-cli fuzz --seed 0 --count 64 | cmp - <(head -64 corpus/fuzz_verdicts.jsonl)
echo "ci: all green"
