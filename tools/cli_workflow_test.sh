#!/bin/sh
# End-to-end smoke test of the salnov CLI: generate -> train-steering ->
# fit -> classify -> saliency, asserting the novelty verdicts, then the
# serving runtime (serve, record, replay) and the flag parser's refusals.
set -eu

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$CLI" generate --out target --dataset outdoor --count 60 --height 30 --width 80 --seed 5
"$CLI" generate --out novel --dataset indoor --count 6 --height 30 --width 80 --seed 6
test -f target/labels.csv
test -f target/img00059.pgm

"$CLI" train-steering --data target --out steering.model --epochs 10
test -f steering.model

"$CLI" fit --data target --steering steering.model --out detector.pipeline --epochs 60
test -f detector.pipeline

OUT="$("$CLI" classify --pipeline detector.pipeline novel/img00000.pgm novel/img00001.pgm \
        novel/img00002.pgm target/img00000.pgm target/img00001.pgm)"
echo "$OUT"
# The three indoor images must be flagged; the two training images must not.
echo "$OUT" | grep -q "3/5 flagged novel"

"$CLI" saliency --steering steering.model --out sal target/img00002.pgm
test -f sal/img00002_mask.pgm
test -f sal/img00002_overlay.pgm

# Degraded-mode serving: a persistent saliency stall under the fake clock must
# step the ladder down to raw+MSE, report a nonzero overrun counter, and still
# exit 0 (the runtime absorbs the fault instead of failing).
SERVE="$("$CLI" serve --pipeline detector.pipeline --frames 40 --dataset outdoor \
        --seed 7 --fake-clock --stage-budget-ns 1000000 \
        --stall-stage 2 --stall-ns 5000000 --promote-after 100 \
        --health-out health.json)"
echo "$SERVE"
echo "$SERVE" | grep -q "final_mode=raw+mse"
echo "$SERVE" | grep -Eq "deadline_overruns=[1-9]"
echo "$SERVE" | grep -q '"name":"saliency","overruns":2'
test -f health.json
grep -q '"mode":"raw+mse"' health.json

# A healthy serve run stays at the top of the ladder with clean counters.
SERVE_OK="$("$CLI" serve --pipeline detector.pipeline --frames 20 --dataset outdoor \
        --seed 7 --fake-clock)"
echo "$SERVE_OK" | grep -q "final_mode=vbp+ssim"
echo "$SERVE_OK" | grep -q "deadline_overruns=0"

# Online calibration: a forced swap at frame 10 must install epoch 1
# deterministically, persist it to the threshold store, and surface the drift
# counters in the health JSON.
SWAP="$("$CLI" serve --pipeline detector.pipeline --frames 30 --dataset outdoor \
        --seed 7 --fake-clock --online-calib --force-swap-at 10 \
        --threshold-store thresholds.bin --health-out health_calib.json)"
echo "$SWAP"
echo "$SWAP" | grep -q "swap_event frame=10 epoch=1 reason=forced persisted=1"
echo "$SWAP" | grep -q "threshold_swaps=1"
test -f thresholds.bin
grep -q '"drift_checks"' health_calib.json
grep -q '"threshold_swaps":1' health_calib.json

# A restart with the same store recovers the persisted epoch before serving.
RECOVER="$("$CLI" serve --pipeline detector.pipeline --frames 5 --dataset outdoor \
        --seed 7 --fake-clock --online-calib --threshold-store thresholds.bin)"
echo "$RECOVER" | grep -q "recovered threshold store thresholds.bin (epoch 1)"

# Multi-stream cluster serving: two streams micro-batched under the fake
# clock must report one grep-able summary line per stream, account for every
# submitted frame, and actually batch (batches < batched_frames).
MULTI="$("$CLI" serve --pipeline detector.pipeline --frames 10 --dataset outdoor \
        --seed 7 --fake-clock --streams 2 --replicas 1 \
        --batch-window-us 4000 --arrival-us 1000 --max-batch 8 \
        --health-out health_multi.json)"
echo "$MULTI"
echo "$MULTI" | grep -q "stream=0 frames=10 scored=10"
echo "$MULTI" | grep -q "stream=1 frames=10 scored=10"
echo "$MULTI" | grep -q "streams=2"
echo "$MULTI" | grep -q "frames_total=20"
echo "$MULTI" | grep -q "batched_frames=20"
BATCHES="$(echo "$MULTI" | sed -n 's/^batches=//p')"
test "$BATCHES" -ge 1 && test "$BATCHES" -lt 20
# Every ClusterStats counter prints exactly one grep-able line, and the
# health JSON's cluster section carries exactly the same keys.
CLUSTER_JSON="$(sed 's/.*"cluster":{//' health_multi.json)"
for KEY in batches batched_frames max_batch_seals window_seals flush_seals \
    max_gather_wait_ns provided_steer provided_saliency provided_recon recon_mispredicts \
    prescreen_rejects quarantines probe_attempts probe_failures restores failovers \
    redispatched_frames fallback_frames shed_frames slow_batches canary_checks \
    canary_failures; do
  test "$(echo "$MULTI" | grep -c "^$KEY=")" -eq 1 || { echo "want one $KEY= line" >&2; exit 1; }
  echo "$CLUSTER_JSON" | grep -q "\"$KEY\":" || { echo "missing JSON key $KEY" >&2; exit 1; }
done
test "$(echo "$CLUSTER_JSON" | tr ',' '\n' | grep -c '":')" -eq 22

# Replica failure domain: a crashed replica is quarantined by the watchdog,
# its streams fail over to the survivor, and a half-open probe restores it
# once the fault window closes. Every frame must still be served (no shed:
# admission control is off) and the failure-domain counters must be
# grep-able from the summary.
CHAOS="$("$CLI" serve --pipeline detector.pipeline --frames 10 --dataset outdoor \
        --seed 7 --fake-clock --streams 2 --replicas 2 \
        --batch-window-us 5000 --arrival-us 10000 --watchdog \
        --batch-deadline-us 5000 --missed-deadlines 2 --probe-backoff-us 8000 \
        --replica-fault 'crash:0:0:20000;slow:1:40000:65000:20000')"
echo "$CHAOS"
echo "$CHAOS" | grep -q "stream=0 frames=10 scored=10"
echo "$CHAOS" | grep -q "stream=1 frames=10 scored=10"
echo "$CHAOS" | grep -q "frames_total=20"
echo "$CHAOS" | grep -q "shed_frames=0"
echo "$CHAOS" | grep -Eq "quarantines=[1-9]"
echo "$CHAOS" | grep -Eq "restores=[1-9]"
echo "$CHAOS" | grep -Eq "failovers=[1-9]"
echo "$CHAOS" | grep -q "cluster_event kind=quarantine"
echo "$CHAOS" | grep -q "cluster_event kind=restore"

# The same failure domain records as a format-v4 trace and replays with an
# empty diff (the event log and failure-domain counters are part of it).
"$CLI" record --pipeline detector.pipeline --out chaos.trace --frames 6 \
        --dataset outdoor --seed 9 --streams 2 --replicas 2 \
        --batch-window-us 5000 --arrival-us 10000 --watchdog \
        --batch-deadline-us 5000 --missed-deadlines 2 --probe-backoff-us 8000 \
        --replica-fault 'crash:0:0:20000'
REPLAY_CHAOS="$("$CLI" replay --pipeline detector.pipeline --trace chaos.trace --threads 2)"
echo "$REPLAY_CHAOS" | grep -q "replay conformant (12 frames)"

# A fault schedule without the fake clock is refused (the windows are
# offsets into fake time and would never activate on a wall clock).
if "$CLI" serve --pipeline detector.pipeline --frames 2 --streams 2 --replicas 2 \
        --watchdog --replica-fault 'crash:0:0:20000' 2>/dev/null; then
  echo "expected serve to reject --replica-fault without --fake-clock" >&2
  exit 1
fi

# serve and record share one watchdog rule set: a max probe backoff below
# the initial one (a failed probe would shrink the backoff) is refused.
if "$CLI" serve --pipeline detector.pipeline --frames 2 --fake-clock --streams 2 \
        --watchdog --probe-backoff-us 8000 --max-probe-backoff-us 1000 2>/dev/null; then
  echo "expected serve to reject a max probe backoff below the initial backoff" >&2
  exit 1
fi

# A multi-stream recorded trace replays conformant too (stream routing and
# per-stream decisions are part of the diff).
"$CLI" record --pipeline detector.pipeline --out multi.trace --frames 6 \
        --dataset outdoor --seed 9 --streams 3 --replicas 2 \
        --batch-window-us 2000 --arrival-us 1000
REPLAY_MULTI="$("$CLI" replay --pipeline detector.pipeline --trace multi.trace --threads 2)"
echo "$REPLAY_MULTI" | grep -q "replay conformant (18 frames)"

# Record/replay conformance round trip: a recorded trace replays with an
# empty diff (exit 0) at 1 and 4 threads; a replay against a different
# pipeline is refused via the CRC binding; a stale trace (re-recorded world)
# still replays because the spec pins every input.
"$CLI" record --pipeline detector.pipeline --out run.trace --frames 12 \
        --dataset outdoor --seed 9 \
        --stall-stage 2 --stall-ns 5000000 --stall-first 3 --stall-last 6
test -f run.trace
REPLAY="$("$CLI" replay --pipeline detector.pipeline --trace run.trace --threads 1)"
echo "$REPLAY" | grep -q "replay conformant (12 frames)"
"$CLI" replay --pipeline detector.pipeline --trace run.trace --threads 4 \
        --report replay_report.txt
grep -q "replay conformant" replay_report.txt

# serve --streams and record run one spec through one driver: the same
# scenario flags report the same frame counts.
SAME="--frames 6 --dataset outdoor --seed 9 --streams 3 --replicas 2 --batch-window-us 2000 --arrival-us 1000"
SERVED="$("$CLI" serve --pipeline detector.pipeline --fake-clock $SAME)"
RECORDED="$("$CLI" record --pipeline detector.pipeline --out same.trace $SAME)"
TOTAL="$(echo "$SERVED" | sed -n 's/^frames_total=//p')"
SCORED="$(echo "$SERVED" | sed -n 's/^frames_scored=//p')"
test "$TOTAL" -eq 18
echo "$RECORDED" | grep -q "recorded $TOTAL frames ($SCORED scored" || {
  echo "serve and record disagree: $TOTAL/$SCORED vs $RECORDED" >&2
  exit 1
}

# Every flag is a knob row. A misspelled flag, a value that does not parse
# whole, a value outside its row's range, and a cross-field conflict are
# refused with exit 1 and an error naming the flag.
expect_refused() {
  FLAG="$1"
  shift
  set +e
  ERR="$("$CLI" "$@" 2>&1 >/dev/null)"
  RC=$?
  set -e
  test "$RC" -eq 1 || { echo "want exit 1, got $RC: $*" >&2; exit 1; }
  echo "$ERR" | grep -q -- "$FLAG" || { echo "error does not name $FLAG: $ERR" >&2; exit 1; }
}
P="--pipeline detector.pipeline"
expect_refused --stal-ns serve $P --fake-clock --stage-budget-ns 1000000 --stall-stage 2 \
        --stal-ns 5000000
expect_refused --frames serve $P --frames abc
expect_refused --frames serve $P --frames 3x
expect_refused --stage-budget-ns serve $P --stage-budget-ns 1e6
expect_refused --batch-window-us serve $P --streams 2 --batch-window-us -5
expect_refused --replicas serve $P --fake-clock --streams 2 --replicas 2 --stall-stage 2 \
        --stall-ns 5000000
expect_refused --score fit --data target --steering steering.model --out never.pipeline \
        --score msee
expect_refused --threads replay $P --trace run.trace --threads -1
# Parsing refuses the value before any worker thread starts.
expect_refused --threads replay $P --trace run.trace --threads 1025
expect_refused --frame-seed record $P --out never.trace --frame-seed 9
expect_refused --height serve $P --height 30

# Replaying against the wrong pipeline must fail the CRC binding up front.
"$CLI" fit --data target --steering steering.model --out other.pipeline --epochs 20 --seed 9
if "$CLI" replay --pipeline other.pipeline --trace run.trace 2>/dev/null; then
  echo "expected replay to reject a mismatched pipeline" >&2
  exit 1
fi

# A truncated pipeline file must be rejected with a diagnostic, not crash.
head -c 100 detector.pipeline > truncated.pipeline
if ERR="$("$CLI" classify --pipeline truncated.pipeline target/img00000.pgm 2>&1)"; then
  echo "expected nonzero exit for truncated pipeline" >&2
  exit 1
fi
echo "$ERR" | grep -qi "salnov:" || { echo "missing diagnostic for truncated file" >&2; exit 1; }

# So must a pipeline with corrupted payload bytes (CRC trailer check).
# Writing 0xFF and 0x00 at adjacent offsets guarantees at least one byte
# actually changes, whatever the original contents.
cp detector.pipeline corrupt.pipeline
printf '\377\000' | dd of=corrupt.pipeline bs=1 seek=100 count=2 conv=notrunc 2>/dev/null
if ERR="$("$CLI" classify --pipeline corrupt.pipeline target/img00000.pgm 2>&1)"; then
  echo "expected nonzero exit for corrupted pipeline" >&2
  exit 1
fi
echo "$ERR" | grep -qi "salnov:" || { echo "missing diagnostic for corrupted file" >&2; exit 1; }

# Unknown command prints usage and exits nonzero.
if "$CLI" frobnicate 2>/dev/null; then
  echo "expected nonzero exit for unknown command" >&2
  exit 1
fi

echo "cli workflow ok"
