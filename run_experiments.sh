#!/bin/bash
# Regenerate every table and figure. Scales are chosen to fit a 15 GB
# machine; EXPERIMENTS.md records them. Output: bench_out/*.csv + stdout.
set -u
cd "$(dirname "$0")"
BIN=target/release
run() {
  local scale=$1; shift
  local name=$1; shift
  echo ""
  echo "##### $name (PHJ_SCALE=$scale) #####"
  local t0=$SECONDS
  PHJ_SCALE=$scale $BIN/$name
  echo "[$name took $((SECONDS - t0))s]"
}
run 1.0  table02_params
run 1.0  fig01_breakdown
run 1.0  fig09_cpu_vs_io
run 1.0  fig10_join_phase
run 1.0  fig11_join_breakdown
run 0.5  fig12_tuning
run 0.5  fig13_miss_breakdown
run 0.25 fig14_partition_phase
run 0.25 fig15_partition_breakdown
run 0.25 fig16_partition_tuning
run 0.25 fig17_partition_miss
run 1.0  fig18_flush_robustness
run 0.25 fig19_cache_partitioning
run 0.5  headline_speedups
run 0.25 ablations
run 0.25 ext_skew
echo ""
echo "ALL EXPERIMENTS DONE"
