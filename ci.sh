#!/usr/bin/env bash
# CI gate: format, build, full test suite, lints-as-errors, docs, bench smoke.
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
# Bench smoke: the newest harnesses must still run end to end (fast
# parameters; the vendored criterion runs each closure once).
DAMPI_BENCH_FAST=1 cargo bench --offline -p dampi-bench --bench parallel_explore
DAMPI_BENCH_FAST=1 cargo bench --offline -p dampi-bench --bench metrics_overhead
DAMPI_BENCH_FAST=1 cargo bench --offline -p dampi-bench --bench shard_overhead
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
# campaign (its trace is deterministic — 162 -> 27 on every run), while
# content mode above stays a guaranteed no-op.
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
# Replay-cache warm-run contract: verify an unchanged workload twice
# against one store and the second run must be served from it — hit rate
# >= 90% (it is 100%), wall-clock <= 0.5x cold, report byte-identical.
# --replay-cost-ms prices each *executed* replay as an MPI job launch
# (cache hits never execute, so they are free): the wall ratio then
# measures what the cache eliminates, deterministically across CI
# machines, instead of racing the simulator against the JSON parser.
python3 - "$MDIR" <<'PY'
import json, subprocess, sys, time
d = sys.argv[1]
def run(out, metrics, args):
    t = time.time()
    with open(out, "w") as f:
        r = subprocess.run(["./target/release/dampi-cli", "verify", *args,
                            "--metrics", metrics, "--json"], stdout=f)
    assert r.returncode == 0, (out, r.returncode)
    return time.time() - t
for name, args in (("matmul", ["matmul"]),
                   ("adlb", ["adlb", "--np", "4", "--max", "400"])):
    base = [*args, "--cache", f"{d}/cache-{name}", "--replay-cost-ms", "5"]
    cold = run(f"{d}/{name}.cold.json", f"{d}/{name}.cold.metrics.json", base)
    warm = run(f"{d}/{name}.warm.json", f"{d}/{name}.warm.metrics.json", base)
    same = open(f"{d}/{name}.cold.json").read() == open(f"{d}/{name}.warm.json").read()
    assert same, f"{name}: warm report differs from cold"
    c = json.load(open(f"{d}/{name}.warm.metrics.json"))["cache"]
    rate = c["hits"] / (c["hits"] + c["misses"])
    assert rate >= 0.9, f"{name}: warm hit rate {rate:.2f} < 0.9 ({c})"
    assert c["stores"] == 0 and c["stale"] == 0, f"{name}: warm wrote or evicted ({c})"
    assert warm <= 0.5 * cold, f"{name}: warm {warm:.2f}s > 0.5x cold {cold:.2f}s"
    print(f"ci: cache {name} cold {cold:.2f}s -> warm {warm:.2f}s, hit rate {rate:.2f}")
PY
# The warm contract must hold under every driver (the acceptance bar):
# warm runs at --jobs 1, --jobs 4, and --shards 2 against the matmul
# store are all byte-identical to the cold report and all-hits.
./target/release/dampi-cli verify matmul --cache "$MDIR/cache-matmul" --jobs 1 \
    --metrics "$MDIR/matmul.wj1.metrics.json" --json > "$MDIR/matmul.wj1.json"
./target/release/dampi-cli verify matmul --cache "$MDIR/cache-matmul" --jobs 4 \
    --metrics "$MDIR/matmul.wj4.metrics.json" --json > "$MDIR/matmul.wj4.json"
./target/release/dampi-cli verify matmul --cache "$MDIR/cache-matmul" --shards 2 \
    --metrics "$MDIR/matmul.ws2.metrics.json" --json > "$MDIR/matmul.ws2.json"
cmp "$MDIR/matmul.cold.json" "$MDIR/matmul.wj1.json"
cmp "$MDIR/matmul.cold.json" "$MDIR/matmul.wj4.json"
cmp "$MDIR/matmul.cold.json" "$MDIR/matmul.ws2.json"
# Invalidation: flip a workload parameter (--np) against the same store
# and the run must be a full miss — zero hits, zero stale reuse.
./target/release/dampi-cli verify adlb --np 5 --max 400 --cache "$MDIR/cache-adlb" \
    --metrics "$MDIR/adlb.flip.metrics.json" --json > /dev/null
# The metrics lint checks the cache-ledger invariants on every snapshot;
# semantic sections must also be cache- and driver-invariant.
./target/release/metrics-lint \
    "$MDIR/matmul.cold.metrics.json" "$MDIR/matmul.warm.metrics.json" \
    "$MDIR/matmul.wj1.metrics.json" "$MDIR/matmul.wj4.metrics.json" \
    "$MDIR/matmul.ws2.metrics.json" --expect-semantic-match
./target/release/metrics-lint \
    "$MDIR/adlb.cold.metrics.json" "$MDIR/adlb.warm.metrics.json" \
    "$MDIR/adlb.flip.metrics.json"
python3 - "$MDIR" <<'PY'
import json, sys
d = sys.argv[1]
for tag in ("wj1", "wj4", "ws2"):
    c = json.load(open(f"{d}/matmul.{tag}.metrics.json"))["cache"]
    assert c["misses"] == 0 and c["hits"] > 0, (tag, c)
flip = json.load(open(f"{d}/adlb.flip.metrics.json"))["cache"]
assert flip["hits"] == 0 and flip["stale"] == 0, flip
assert flip["misses"] > 0 and flip["stores"] == flip["misses"], flip
print("ci: cache driver parity (jobs 1/4, shards 2) + --np flip full miss ok")
PY
DAMPI_BENCH_FAST=1 cargo bench --offline -p dampi-bench --bench prune_static
DAMPI_BENCH_FAST=1 cargo bench --offline -p dampi-bench --bench replay_cache
DAMPI_BENCH_FAST=1 cargo bench --offline -p dampi-bench --bench protocol_prune
# Bench-history gate: the committed snapshot must agree with the newest
# BENCH_HISTORY.jsonl row for each workload, and rows are only compared
# when their explicit `params` strings match — a config change starts a
# fresh series instead of masquerading as a speedup (or a regression).
# Across two params-matched rows, >20% more replays or >20% more pruned
# wall-clock (beyond 50 ms of noise floor) fails the gate.
python3 - <<'PY'
import json
history = [json.loads(l) for l in open("BENCH_HISTORY.jsonl") if l.strip()]
snapshot = json.load(open("BENCH_prune_static.json"))["workloads"]
series = {}
for row in history:
    series.setdefault((row["workload"], row["params"]), []).append(row)
for workload, point in snapshot.items():
    rows = series.get((workload, point["params"]))
    assert rows, f"{workload}: no history row with params `{point['params']}`"
    last = rows[-1]
    for key in ("base_interleavings", "pruned_interleavings", "alternates_pruned",
                "orbits", "errors"):
        assert last[key] == point[key], (workload, key, last[key], point[key])
# The protocol-prune snapshot is gated the same way; the deterministic
# columns are the whole measurement (both workloads replay single-digit
# interleavings), so all of them must agree exactly.
proto_snapshot = json.load(open("BENCH_protocol_prune.json"))["workloads"]
for workload, point in proto_snapshot.items():
    rows = series.get((workload, point["params"]))
    assert rows, f"{workload}: no history row with params `{point['params']}`"
    last = rows[-1]
    for key in ("base_interleavings", "v2_interleavings", "protocol_interleavings",
                "protocol_alternates_pruned", "protocol_wildcards_deterministic",
                "plan_deterministic", "plan_infeasible", "errors"):
        assert last[key] == point[key], (workload, key, last[key], point[key])
# The replay-cache snapshot is gated the same way: exact agreement with
# the newest params-matched row on everything deterministic (wall-clock
# seconds are machine-local and stay ungated).
cache_snapshot = json.load(open("BENCH_replay_cache.json"))["workloads"]
for workload, point in cache_snapshot.items():
    rows = series.get((workload, point["params"]))
    assert rows, f"{workload}: no history row with params `{point['params']}`"
    last = rows[-1]
    for key in ("interleavings", "errors", "warm_hit_rate"):
        assert last[key] == point[key], (workload, key, last[key], point[key])
for (workload, params), rows in series.items():
    if len(rows) < 2:
        continue
    prev, last = rows[-2], rows[-1]
    # Replay-cache series: a warm run losing more than 10 points of hit
    # rate under identical params means subtree reuse regressed.
    if "warm_hit_rate" in prev and "warm_hit_rate" in last:
        assert last["warm_hit_rate"] >= prev["warm_hit_rate"] - 0.10, (
            f"{workload}: warm hit rate fell {prev['warm_hit_rate']} -> "
            f"{last['warm_hit_rate']} under identical params `{params}`")
    # Protocol-prune series: >20% more v3 replays under identical params
    # means the session-type facts stopped refuting schedules.
    if "protocol_interleavings" in prev and "protocol_interleavings" in last:
        assert last["protocol_interleavings"] <= prev["protocol_interleavings"] * 1.2, (
            f"{workload}: protocol replay regression "
            f"{prev['protocol_interleavings']} -> {last['protocol_interleavings']} "
            f"under identical params `{params}`")
    if "pruned_interleavings" not in prev or "pruned_interleavings" not in last:
        continue  # shard/cache series: different schema, no prune gate
    assert last["pruned_interleavings"] <= prev["pruned_interleavings"] * 1.2, (
        f"{workload}: replay regression {prev['pruned_interleavings']} -> "
        f"{last['pruned_interleavings']} under identical params `{params}`")
    wall_prev, wall_last = prev["pruned_wall_s"], last["pruned_wall_s"]
    assert wall_last <= wall_prev * 1.2 or wall_last - wall_prev <= 0.05, (
        f"{workload}: wall regression {wall_prev} -> {wall_last}s "
        f"under identical params `{params}`")
print("ci: bench history consistent, no params-matched regressions")
PY
# Fuzz smoke: `tests/cli.rs` regenerates 32 seeds of the committed corpus
# and scans all 256 verdicts; the release build affords 64.
./target/release/dampi-cli fuzz --seed 0 --count 64 | cmp - <(head -64 corpus/fuzz_verdicts.jsonl)
echo "ci: all green"
