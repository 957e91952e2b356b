#!/bin/sh
# Run every workload once and print its metrics.
#   sh perfbench/all.sh [SEED] [TRACE]    TRACE 1 gives the per-layer run
set -e
seed=${1:-1}
trace=${2:-0}
for workload in small-ball field-quadrature pipeline-sweep; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 10 --trace "$trace"
done
