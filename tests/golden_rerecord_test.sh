#!/bin/sh
# Golden re-record gate: records every golden conformance file into a
# temporary directory with make_golden and byte-compares the result against
# the checked-in set. Replay never refits, so this is the test that sees a
# change to fit()'s calibration or to the pipeline file bytes.
#
# Usage: golden_rerecord_test.sh MAKE_GOLDEN GOLDEN_DIR
set -eu

MAKE_GOLDEN="$1"
GOLDEN="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$MAKE_GOLDEN" --out "$WORK"

status=0
for f in "$GOLDEN"/*; do
  name="$(basename "$f")"
  if ! cmp "$f" "$WORK/$name"; then
    echo "re-recorded $name differs from $GOLDEN/$name"
    status=1
  fi
done
for f in "$WORK"/*; do
  name="$(basename "$f")"
  if [ ! -e "$GOLDEN/$name" ]; then
    echo "make_golden wrote $name, which is not checked in"
    status=1
  fi
done
exit $status
