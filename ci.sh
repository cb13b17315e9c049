#!/usr/bin/env bash
# CI gate: format, unsafe/waist greps, build, full test suite, lints-as-errors,
# docs, one paper-printer smoke, then the CLI contract smokes that are not yet
# in `tests/cli.rs`. Nothing here reads a wall clock: `benchmark/` measures.
# Tier-1 is the root-package `cargo test -q`; the workspace run covers
# every crate. Pass --offline (default here) since the build is vendored.
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
cargo test -q --offline --workspace
# Flake guard: these two asserted a wildcard-match bias that only
# thread-creation order used to provide; they now run their native legs on
# the cooperative scheduler and must pass every time.
for _ in $(seq 20); do
  cargo test -q --offline --test cross_tool native_bias_masks_what_verifiers_find > /dev/null
  cargo test -q --offline -p dampi-workloads --lib \
      alternate_schedule_deadlock_hidden_natively_under_bias > /dev/null
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
# Protocol-guided pruning contract at the CLI boundary: on ordered_stages
# the v3 plan must replay strictly fewer schedules than the v2 plan,
# with the error set equal to the unpruned campaign's, invariant across
# --jobs — the "prunes at least one additional replay" acceptance bar.
./target/release/dampi-cli verify ordered_stages --np 3 --json > "$MDIR/os.base.json"
./target/release/dampi-cli verify ordered_stages --np 3 --prune-static --json \
    > "$MDIR/os.v2.json"
./target/release/dampi-cli verify ordered_stages --np 3 --prune-static \
    --protocol ordered_stages --json > "$MDIR/os.v3.json"
./target/release/dampi-cli verify ordered_stages --np 3 --prune-static \
    --protocol ordered_stages --jobs 4 --json > "$MDIR/os.v3j4.json"
cmp "$MDIR/os.v3.json" "$MDIR/os.v3j4.json"
python3 - "$MDIR" <<'PY'
import json, sys
d = sys.argv[1]
load = lambda n: json.load(open(f"{d}/{n}"))
base, v2, v3 = load("os.base.json"), load("os.v2.json"), load("os.v3.json")
assert v2["errors"] == base["errors"] == v3["errors"], (base["errors"], v2["errors"], v3["errors"])
assert v3["interleavings"] < v2["interleavings"] <= base["interleavings"], (
    base["interleavings"], v2["interleavings"], v3["interleavings"])
assert v3["protocol_alternates_pruned"] + v3["protocol_wildcards_deterministic"] > 0, v3
print(f"ci: protocol pruning contract ok (ordered_stages "
      f"{base['interleavings']} -> v2 {v2['interleavings']} -> v3 {v3['interleavings']})")
PY
# Protocol-template fuzz smoke: 24 seeds of the known-answer conformance
# corpus — the generator plants L006/L007/L008 violations and the
# checker must answer every one exactly (`fuzz` exits non-zero on any
# miss or false positive).
./target/release/dampi-cli fuzz --protocol-templates 24 --out "$MDIR/proto.fuzz.jsonl"
python3 - "$MDIR/proto.fuzz.jsonl" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 24, len(lines)
assert all(v["ok"] for v in lines), [v for v in lines if not v["ok"]]
planted = [v for v in lines if v["expected"]]
assert len(planted) == 12, len(planted)
print(f"ci: protocol-template fuzz ok ({len(planted)}/24 seeded violations caught)")
PY
./target/release/dampi-cli verify matmul --json > "$MDIR/mm.base.json"
./target/release/dampi-cli verify matmul --prune-static --json > "$MDIR/mm.pruned.json"
./target/release/dampi-cli verify matmul_ack --json > "$MDIR/ma.base.json"
./target/release/dampi-cli verify matmul_ack --prune-static --json > "$MDIR/ma.pruned.json"
./target/release/dampi-cli verify racers --np 4 --json > "$MDIR/rc.base.json"
./target/release/dampi-cli verify racers --np 4 --prune-static --json > "$MDIR/rc.pruned.json"
# fig3 exits 2 (bugs found) — that is the point: the strongest prune
# check is error-set equality on a workload whose error set is non-empty.
./target/release/dampi-cli verify fig3 --np 3 --json > "$MDIR/f3.base.json" && exit 1 || [ $? -eq 2 ]
./target/release/dampi-cli verify fig3 --np 3 --prune-static --json > "$MDIR/f3.pruned.json" && exit 1 || [ $? -eq 2 ]
python3 - "$MDIR" <<'PY'
import json, sys
d = sys.argv[1]
load = lambda n: json.load(open(f"{d}/{n}"))
mb, mp = load("mm.base.json"), load("mm.pruned.json")
assert mp["errors"] == mb["errors"], (mb["errors"], mp["errors"])
assert mp["interleavings"] <= mb["interleavings"]
# Ack-mode matmul: the payload-oblivious orbit must actually collapse the
# campaign (90 -> 15 on every run; `crates/analysis/tests/workloads.rs` pins
# it), while content mode above stays a guaranteed no-op.
ab, ap = load("ma.base.json"), load("ma.pruned.json")
assert ap["errors"] == ab["errors"], (ab["errors"], ap["errors"])
assert ap["interleavings"] < ab["interleavings"], (ab["interleavings"], ap["interleavings"])
rb, rp = load("rc.base.json"), load("rc.pruned.json")
assert rp["errors"] == rb["errors"], (rb["errors"], rp["errors"])
assert rp["interleavings"] < rb["interleavings"], (rb["interleavings"], rp["interleavings"])
assert rp["alternates_pruned"] > 0
fb, fp = load("f3.base.json"), load("f3.pruned.json")
assert fb["errors"], "fig3 plain campaign must find the x==33 bug"
assert fp["errors"] == fb["errors"], (fb["errors"], fp["errors"])
print(f"ci: prune contract ok (racers {rb['interleavings']} -> {rp['interleavings']}, fig3 errors kept)")
PY
# Shard smoke: a process-sharded campaign must be byte-identical to
# --jobs 1 — same report JSON, same checkpoint journal — both clean and
# with a worker killed mid-campaign (the supervisor re-dispatches the
# lost subtree through the same in-order commit path). matmul/adlb fold
# wall-clock into their virtual time, so across *separate* campaigns
# they get error-set equality instead of byte equality.
./target/release/dampi-cli verify racers --np 4 --jobs 1 --json \
    --journal "$MDIR/rc.j1.journal" > "$MDIR/rc.j1.json"
./target/release/dampi-cli verify racers --np 4 --shards 2 --json \
    --journal "$MDIR/rc.s2.journal" --metrics "$MDIR/rc.s2.metrics.json" > "$MDIR/rc.s2.json"
./target/release/dampi-cli verify racers --np 4 --shards 2 --json \
    --worker-fault kill:1 --heartbeat-timeout 0.5 \
    --journal "$MDIR/rc.s2k.journal" --metrics "$MDIR/rc.s2k.metrics.json" > "$MDIR/rc.s2k.json"
cmp "$MDIR/rc.j1.json" "$MDIR/rc.s2.json"
cmp "$MDIR/rc.j1.json" "$MDIR/rc.s2k.json"
cmp "$MDIR/rc.j1.journal" "$MDIR/rc.s2.journal"
cmp "$MDIR/rc.j1.journal" "$MDIR/rc.s2k.journal"
# The same parity with a static prune plan installed: the plan prunes on
# the supervisor's commit path and workers never see it.
./target/release/dampi-cli verify racers --np 4 --prune-static --jobs 1 --json \
    --journal "$MDIR/rc.pj1.journal" > "$MDIR/rc.pj1.json"
./target/release/dampi-cli verify racers --np 4 --prune-static --shards 2 --json \
    --journal "$MDIR/rc.ps2.journal" > "$MDIR/rc.ps2.json"
cmp "$MDIR/rc.pj1.json" "$MDIR/rc.ps2.json"
cmp "$MDIR/rc.pj1.journal" "$MDIR/rc.ps2.journal"
./target/release/metrics-lint "$MDIR/rc.s2.metrics.json" "$MDIR/rc.s2k.metrics.json" \
    --expect-semantic-match
# fig3's error set is non-empty — the strongest equality check (exit 2).
./target/release/dampi-cli verify fig3 --np 3 --shards 2 --json \
    > "$MDIR/f3.s2.json" && exit 1 || [ $? -eq 2 ]
./target/release/dampi-cli verify matmul --shards 2 --json > "$MDIR/mm.s2.json"
./target/release/dampi-cli verify adlb --max 300 --jobs 1 --json > "$MDIR/ad.j1.json"
./target/release/dampi-cli verify adlb --max 300 --shards 2 --json > "$MDIR/ad.s2.json"
# Poison-subtree quarantine: a one-slot fleet whose worker dies on every
# job must terminate with an honest partial-coverage report, not hang.
./target/release/dampi-cli verify racers --np 4 --shards 1 \
    --worker-fault kill:0:always --heartbeat-timeout 0.5 --max-attempts 2 --json \
    > "$MDIR/rc.quarantine.json"
python3 - "$MDIR" <<'PY'
import json, sys
d = sys.argv[1]
load = lambda n: json.load(open(f"{d}/{n}"))
chaos = load("rc.s2k.metrics.json")["wall_clock"]["shard"]
assert chaos["workers_lost"] >= 1, chaos
assert chaos["subtrees_redispatched"] >= 1, chaos
f3b, f3s = load("f3.base.json"), load("f3.s2.json")
assert f3s["errors"] == f3b["errors"], (f3b["errors"], f3s["errors"])
mmb, mms = load("mm.base.json"), load("mm.s2.json")
assert mms["errors"] == mmb["errors"], (mmb["errors"], mms["errors"])
assert mms["interleavings"] == mmb["interleavings"]
adj, ads = load("ad.j1.json"), load("ad.s2.json")
assert ads["errors"] == adj["errors"], (adj["errors"], ads["errors"])
assert ads["interleavings"] == adj["interleavings"]
q = load("rc.quarantine.json")
assert q["quarantined"] == 1 and len(q["timeouts"]) == 1, (q["quarantined"], q["timeouts"])
assert not q["errors"], q["errors"]
print("ci: shard parity + chaos recovery + quarantine ok "
      f"(chaos fleet: {chaos})")
PY
# Fuzz smoke: `tests/cli.rs` regenerates 32 seeds of the committed corpus
# and scans all 256 verdicts; the release build affords 64.
./target/release/dampi-cli fuzz --seed 0 --count 64 | cmp - <(head -64 corpus/fuzz_verdicts.jsonl)
echo "ci: all green"
