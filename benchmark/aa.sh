#!/usr/bin/env bash
# A/A check: two complete sets of runs of the same commit must agree within
# the benchmark's own bounds. Fails if any (end-to-end metric, workload) row
# of the second set is `worse` than the first. Arguments go to both run.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
benchmark/run.sh "$@" --out benchmark/out/aa-A.json
benchmark/run.sh "$@" --out benchmark/out/aa-B.json
benchmark/run.sh compare benchmark/out/aa-A.json benchmark/out/aa-B.json
