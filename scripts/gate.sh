#!/bin/sh
# The full local gate, one command:
#   1. pytest (unit / e2e / chaos / resume)
#   2. query-vs-DuckDB oracle compare of EVERY ORACLE_SQL entry at the
#      smoke and correctness tiers
#   3. the full-corpus span-sequence gate at the correctness tier
# Exit nonzero on any failure.
set -e
cd "$(dirname "$0")/.."
python -m pytest tests/ -x -q
python scripts/check_queries.py /root/testdata/sf0.001
python scripts/check_queries.py /root/testdata/sf0.01
python scripts/full_gate.py correctness 8
echo "GATE: all green"
