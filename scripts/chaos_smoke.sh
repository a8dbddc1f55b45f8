#!/usr/bin/env bash
# End-to-end chaos smoke of the fault-tolerant serving stack, as CI runs it:
#
#   scripts/chaos_smoke.sh [build_dir]
#
# Drives the NetRouter through real failures using the chaos harness
# (tests/test_net_faults.cpp + tests/fault_proxy.cpp): real shard-owner
# server processes are SIGKILLed mid-load while a router streams queries
# (zero lost answers, bit-identical results via replica failover), a shard
# is network-partitioned behind the FaultProxy (knn_partial/range_partial
# return coverage flags, never an exception), and a crashed shard is restarted
# behind the proxy's stable port (breaker half-open probe recovers it).
# The headline kill-a-replica scenario repeats 3x so a timing-dependent
# regression fails here rather than flaking in the full suite.
set -euo pipefail

BUILD_DIR="${1:-build}"
CHAOS="$BUILD_DIR/test_net_faults"

[ -x "$CHAOS" ] || { echo "missing $CHAOS (build tests first)"; exit 1; }

echo "== chaos smoke: replica kill mid-load (3 repeats, zero lost queries) =="
"$CHAOS" --gtest_repeat=3 \
  --gtest_filter='NetFaults.KillingAnyReplicaMidLoadLosesZeroQueries'

echo "== chaos smoke: partition -> coverage flags, crash -> restart =="
"$CHAOS" --gtest_filter='NetFaults.PartitionedShardYieldsCoverageFlagsNotException:NetFaults.CrashAndRestartThroughProxyRecoversAndClosesBreaker'

echo "chaos smoke OK"
