#!/usr/bin/env bash
# Builds the test suite with ThreadSanitizer and runs the parallel-layer
# and serving-runtime tests — the one-stream serving front end's worker /
# producer / snapshot threads, the multi-stream cluster's replica workers,
# the replica failure domain (watchdog, fault schedules, failover /
# chaos suites), and the quantized int8 rungs (thread-count bit-identity
# plus the int8 GEMM kernels), the cluster cases of the shared steering
# forward (per-sample VBP mask chains fan out on the pool), and the golden
# record/replay suites (every trace, single-stream ones included, runs on
# a replica worker that shares the FakeClock with the driver thread) —
# (plus any extra ctest -R pattern passed as $1).
#
# Usage:
#   tools/run_tsan.sh              # run parallel_test under TSan
#   tools/run_tsan.sh 'Detector'   # run tests matching 'Detector' instead
#
# Uses a dedicated build tree (build-tsan) so the regular build stays warm.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
PATTERN="${1:-parallel_test|ParallelFor|GemmParallel|SsimParallel|DetectorParallel|DatasetParallel|ServingFixture.ServerProcessesEverythingItAccepts|ServingFixture.ServerBurstRespectsQueueBound|ServingFixture.ProbeDuringQueueBurstRestoresLadder|ServingFixture.ServerConcurrentHotSwapNeverBlocksScoring|ServingFixture.ServerConcurrentProducersAndSnapshots|HotSwap|ClusterFixture|FailoverFixture|ReplicaWatchdog|ReplicaFaultSchedule|QuantDifferentialFixture|GemmInt8|SharedForwardServing|GoldenReplay|Conformance}"

cmake -B "$BUILD_DIR" -S . -DSALNOV_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# second_deadlock_stack gives both stacks on lock-order reports.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$PATTERN"
