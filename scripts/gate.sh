#!/bin/sh
# The full local gate, one command:
#   1. pytest (unit / e2e / chaos / resume): the ROADMAP tier-1 command
#      at half its 2670 s budget, so a suite that slows toward the
#      budget fails here first
#   2. query-vs-DuckDB oracle compare of EVERY ORACLE_SQL entry at the
#      smoke and correctness tiers
#   3. the full-corpus span-sequence gate at the correctness tier
#   4. the benchmark's selftest: every metric BENCHMARK.json names is
#      still produced, and planted mismatches are caught
#   5. no Ray process (raylet, gcs_server, ray:: worker) outlives the
#      steps: each one must tear its session down
# Exit nonzero on any failure.
set -e
cd "$(dirname "$0")/.."
ray stop --force >/dev/null 2>&1 || true
timeout -k 10 1335 python -m pytest tests/ -q --continue-on-collection-errors -p no:cacheprovider
python scripts/check_queries.py /root/testdata/sf0.001
python scripts/check_queries.py /root/testdata/sf0.01
python scripts/full_gate.py correctness 8
python3 perfbench/selftest.py
ray_procs() {
    ps -eo pid=,comm= | awk '$2 ~ /^(raylet|gcs_server|ray::)/'
}
waited=0
while [ -n "$(ray_procs)" ] && [ "$waited" -lt 15 ]; do
    sleep 1
    waited=$((waited + 1))
done
leaked=$(ray_procs)
if [ -n "$leaked" ]; then
    echo "GATE: Ray processes still running 15 s after the last step:" >&2
    echo "$leaked" >&2
    exit 1
fi
echo "GATE: all green"
