#!/usr/bin/env bash
# Builds the test suite with ThreadSanitizer and runs the parallel-layer
# and serving-runtime tests — the one-stream serving front end's worker /
# producer / snapshot threads, the multi-stream cluster's replica workers,
# the replica failure domain (watchdog, fault schedules, failover /
# chaos suites), and the quantized int8 rungs (thread-count bit-identity
# plus the int8 GEMM kernels), the cluster cases of the shared steering
# forward (per-sample VBP mask chains fan out on the pool), and the golden
# record/replay suites (every trace, single-stream ones included, runs on
# a replica worker that shares the FakeClock with the driver thread), and
# the implicit-GEMM convolution (its column panels fan out on the pool), and
# the weight caches (threads race to rebuild packed and int8 weights after a
# weight update) — (plus any extra ctest -R pattern passed as $1). Exits non-zero before
# running anything when an alternative of the pattern matches no case.
#
# Usage:
#   tools/run_tsan.sh              # run the default pattern below under TSan
#   tools/run_tsan.sh 'Detector'   # run tests matching 'Detector' instead
#
# Uses a dedicated build tree (build-tsan) so the regular build stays warm.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
PATTERN="${1:-ParallelFor|GemmParallel|SsimParallel|DetectorParallel|DatasetParallel|ServingFixture.ServerProcessesEverythingItAccepts|ServingFixture.ServerBurstRespectsQueueBound|ServingFixture.ProbeDuringQueueBurstRestoresLadder|ServingFixture.ServerConcurrentHotSwapNeverBlocksScoring|ServingFixture.ServerConcurrentProducersAndSnapshots|HotSwap|ClusterFixture|FailoverFixture|ReplicaWatchdog|ReplicaFaultSchedule|QuantDifferentialFixture|GemmInt8|SharedForwardServing|GoldenReplay|Conformance|ConvImplicitGemm|WeightCache}"

cmake -B "$BUILD_DIR" -S . -DSALNOV_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Every top-level alternative of the pattern must name at least one
# registered case, so a rename or a deleted test cannot shrink TSan coverage
# unnoticed. (The split is on '|', so alternatives must not group a '|'.)
missing=0
IFS='|' read -ra alternatives <<< "$PATTERN"
for alt in "${alternatives[@]}"; do
  count=$(ctest --test-dir "$BUILD_DIR" -N -R "$alt" | sed -n 's/^Total Tests: //p')
  if [ "${count:-0}" -eq 0 ]; then
    echo "run_tsan.sh: pattern alternative '$alt' matches no registered ctest case" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 1

# second_deadlock_stack gives both stacks on lock-order reports.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$PATTERN"
