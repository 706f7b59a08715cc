#!/bin/sh
# CI smoke test for durable checkpoint/resume (DESIGN.md §8): run the
# safe-agreement check under --checkpoint, SIGKILL it mid-run — once as the
# single-process checkpointed engine at depth 10, once as the distributed
# coordinator over a live 2-worker TCP fleet at depth 12 with split depth 6
# — then `wfa resume` a copy of each store with each executor (the one
# that wrote it, and the other one) and diff the mirrored --json result
# fields against an uninterrupted run of the same depth. Interval 0
# journals a generation after every subtree job (the coordinator spaces
# them at least 50 ms apart), so the kill always lands on a store with
# recorded progress, and a run that finishes before the kill fails the
# step. The coordinator's 4,096 jobs take about 0.4 s on two vCPUs; split
# depth 5's 1,024 took about 0.1 s, two journal spacings, and now and then
# finished before the kill. The field diff proves the verdict, credited
# count and pruning counters are byte-identical to a run that was never
# interrupted, whichever executor picks the journal up.
set -eu

WFA=${WFA:-_build/default/bin/wfa.exe}
D="/tmp/wfa-ckpt-smoke-$$"
mkdir -p "$D"

W1=""
W2=""
cleanup() {
  [ -n "$W1" ] && kill "$W1" 2>/dev/null || true
  [ -n "$W2" ] && kill "$W2" 2>/dev/null || true
  rm -rf "$D"
}
trap cleanup EXIT

# the mirrored top-level result fields (2-space indent; wall_s and the
# checkpoint/dist sub-objects are run-dependent and excluded by design)
fields() {
  grep -E '^  "(verdict|schedules|sleep_pruned|orbits_collapsed)"' "$1"
}

reference() { # $1 = depth, $2 = its 4^depth schedule count
  echo "ckpt_smoke: uninterrupted depth-$1 reference"
  "$WFA" modelcheck --depth "$1" --n-s 2 --json "$D/ref$1.json" > /dev/null
  fields "$D/ref$1.json" > "$D/ref$1.fields"
  grep -q "\"schedules\": $2" "$D/ref$1.fields" || {
    echo "ckpt_smoke: depth-$1 reference lost the 4^$1 count" >&2
    exit 1
  }
}
reference 10 1048576
reference 12 16777216

echo "ckpt_smoke: booting a 2-worker fleet"
"$WFA" serve --listen tcp:127.0.0.1:0 --workers 1 > "$D/w1.log" &
W1=$!
"$WFA" serve --listen tcp:127.0.0.1:0 --workers 1 > "$D/w2.log" &
W2=$!

bound_addr() {
  i=0
  while ! grep -q 'listening on tcp:' "$1" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || {
      echo "ckpt_smoke: worker never announced its address" >&2
      exit 1
    }
    sleep 0.1
  done
  sed -n 's/.*listening on \(tcp:[0-9.]*:[0-9]*\).*/\1/p' "$1" | head -n 1
}

A1=$(bound_addr "$D/w1.log")
A2=$(bound_addr "$D/w2.log")
FLEET="--workers $A1,$A2"
echo "ckpt_smoke: workers at $A1 and $A2"

# Resume a store and require the result to match the reference
# field-for-field. $1 = store dir, $2 = tag, $3 = depth, $4... = resume flags
resume_and_diff() {
  STORE=$1
  TAG=$2
  DEPTH=$3
  shift 3
  # shellcheck disable=SC2086
  "$WFA" resume "$STORE" "$@" --json "$D/$TAG-resumed.json" \
    | tee "$D/$TAG-resume.out"
  grep -q 'subtree jobs already done' "$D/$TAG-resume.out" || {
    echo "ckpt_smoke: $TAG: resume did not report journaled progress" >&2
    exit 1
  }
  fields "$D/$TAG-resumed.json" > "$D/$TAG-resumed.fields"
  diff -u "$D/ref$DEPTH.fields" "$D/$TAG-resumed.fields" || {
    echo "ckpt_smoke: $TAG: resumed result differs from uninterrupted" >&2
    exit 1
  }
}

# Start a checkpointed run, kill -9 it once the store holds at least two
# generations (i.e. the initial snapshot plus recorded progress), then
# resume one copy of the store with the run's own executor and one with the
# other executor. $1 = store dir, $2 = tag, $3 = depth, $4 = split depth,
# $5 = the run's executor flags, $6 = the other executor's flags
kill_and_resume() {
  STORE=$1
  TAG=$2
  DEPTH=$3
  SPLIT=$4
  OWN=$5
  OTHER=$6
  # shellcheck disable=SC2086
  "$WFA" modelcheck --depth "$DEPTH" --n-s 2 --split-depth "$SPLIT" \
    --checkpoint "$STORE" --checkpoint-interval-s 0 $OWN \
    --json "$D/$TAG-never.json" > "$D/$TAG-run.out" 2>&1 &
  RUN=$!
  i=0
  while [ "$(ls "$STORE" 2>/dev/null | grep -c '^gen-')" -lt 2 ]; do
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
      echo "ckpt_smoke: $TAG: no progress generation to kill" >&2
      cat "$D/$TAG-run.out" >&2
      exit 1
    fi
    sleep 0.01
  done
  kill -9 "$RUN" 2>/dev/null || true
  wait "$RUN" 2>/dev/null || true
  if [ -f "$D/$TAG-never.json" ]; then
    echo "ckpt_smoke: $TAG finished before the kill landed" >&2
    exit 1
  fi
  cp -R "$STORE" "$STORE-other"
  # shellcheck disable=SC2086
  resume_and_diff "$STORE" "$TAG" "$DEPTH" $OWN
  echo "ckpt_smoke: $TAG: the other executor resumes a copy of the store"
  # shellcheck disable=SC2086
  resume_and_diff "$STORE-other" "$TAG-other" "$DEPTH" $OTHER
}

echo "ckpt_smoke: single-process SIGKILL mid-run, resume == uninterrupted"
kill_and_resume "$D/local-store" local 10 4 "" "$FLEET"

echo "ckpt_smoke: coordinator SIGKILL mid-run, resume == uninterrupted"
kill_and_resume "$D/dist-store" dist 12 6 "$FLEET" ""

trap - EXIT
kill "$W1" "$W2" 2>/dev/null || true
rm -rf "$D"
echo "ckpt_smoke: ok"
