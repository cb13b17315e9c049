#!/usr/bin/env bash
# The benchmark's one command. Builds `dampi-benchmark` in release mode
# (offline; into benchmark/target unless cargo is told otherwise) and runs
# it on one CPU.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--out FILE]
#       every workload in its own process, untraced then traced; prints every
#       metric by name with its unit, checks every verdict against
#       benchmark/expected/, writes benchmark/out/results.json and one
#       benchmark/out/<workload>.trace.jsonl per workload; exits non-zero on
#       any wrong verdict.
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run of one workload (what BENCHMARK.json's `command` is given);
#       the last line of output is the result as one JSON object.
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# One CPU, the first this process may use. The sandbox shows two, but only
# bursts may use both: after ~1.2 s of it every workload here runs 1.3-2.2x
# *slower* on two than on one, and that factor drifts by 25 % over minutes.
# On one CPU the times are the verifier's; on two they are the hypervisor's.
pin=()
if command -v taskset >/dev/null; then
  cpu=$(awk '/^Cpus_allowed_list:/ { sub(/[-,].*/, "", $2); print $2 }' /proc/self/status)
  pin=(taskset -c "$cpu")
else
  echo "run.sh: no taskset: not pinned to one CPU; expect about twice the times and twice the spread" >&2
fi
exec ${pin[@]+"${pin[@]}"} cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
