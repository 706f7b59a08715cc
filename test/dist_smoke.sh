#!/bin/sh
# CI smoke test for distributed model checking (DESIGN.md §6): boot two
# `wfa serve` workers on kernel-chosen TCP ports, run the depth-8
# safe-agreement check through the coordinator and diff the mirrored result
# fields against the single-process anchor (plain; verdict and credited
# count under --reduce, and at the split depth sized to the fleet), check the
# depth-10 race-false counterexample is one lex-least schedule locally,
# under --reduce and on the fleet, check the read-collision control finds
# p2,p2,p1,p1 on the same three paths, then
# kill -9 one worker mid-run and check the re-dispatch path still completes
# the depth-12 search with the exact credited count. The kill waits for
# journaled progress rather than a fixed delay, so it lands mid-run on any
# search that outlasts the journal's 50 ms spacing by a margin, and the
# step fails unless the dead worker is seen.
set -eu

WFA=${WFA:-_build/default/bin/wfa.exe}
D="/tmp/wfa-dist-smoke-$$"
mkdir -p "$D"

cleanup() {
  kill "$W1" "$W2" 2>/dev/null || true
  rm -rf "$D"
}

"$WFA" serve --listen tcp:127.0.0.1:0 --workers 1 > "$D/w1.log" &
W1=$!
"$WFA" serve --listen tcp:127.0.0.1:0 --workers 1 > "$D/w2.log" &
W2=$!
trap cleanup EXIT

# wfa serve prints "listening on tcp:127.0.0.1:PORT" once bound; with port 0
# the kernel picks, so the printed line is the only way to learn the address
bound_addr() {
  i=0
  while ! grep -q 'listening on tcp:' "$1" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || {
      echo "dist_smoke: worker never announced its address" >&2
      exit 1
    }
    sleep 0.1
  done
  sed -n 's/.*listening on \(tcp:[0-9.]*:[0-9]*\).*/\1/p' "$1" | head -n 1
}

A1=$(bound_addr "$D/w1.log")
A2=$(bound_addr "$D/w2.log")
FLEET="$A1,$A2"
echo "dist_smoke: workers at $A1 and $A2"

# the named top-level result fields (2-space indent; the stats block
# repeats two of them at deeper indent, with run-dependent wall_s alongside)
fields() { # $1 = result JSON, $2 = field names as an ERE alternation
  grep -E "^  \"($2)\"" "$1"
}

check_matches() { # $1 = scenario flags, $2 = tag, $3 = fields that must match
  # shellcheck disable=SC2086
  "$WFA" modelcheck $1 --json "$D/$2-local.json" > /dev/null
  # shellcheck disable=SC2086
  "$WFA" modelcheck $1 --workers "$FLEET" --json "$D/$2-dist.json" > /dev/null
  fields "$D/$2-local.json" "$3" > "$D/$2-local.fields"
  fields "$D/$2-dist.json" "$3" > "$D/$2-dist.fields"
  diff -u "$D/$2-local.fields" "$D/$2-dist.fields" || {
    echo "dist_smoke: $2: distributed result differs from local" >&2
    exit 1
  }
}

echo "dist_smoke: depth-8 safe-agreement, distributed == local"
check_matches "--depth 8 --n-s 2" plain \
  "verdict|schedules|sleep_pruned|orbits_collapsed"
grep -q '"verdict": "ok"' "$D/plain-local.fields"
grep -q '"schedules": 65536' "$D/plain-local.fields"

echo "dist_smoke: same under --reduce (credited counts preserved)"
# Only the verdict and the credited count are compared: a fleet's workers
# share one memo table per run, and a memo hit credits a subtree without
# searching it, so how many schedules the sleep sets prune depends on how
# the jobs were dealt (576 locally against 588 on one fleet run). Both
# runs must still prune some.
check_matches "--depth 8 --n-s 2 --reduce" reduce "verdict|schedules"
grep -q '"schedules": 65536' "$D/reduce-local.fields"
for side in local dist; do
  grep -Eq '^  "sleep_pruned": [1-9]' "$D/reduce-$side.json" || {
    echo "dist_smoke: reduce: the $side run's sleep sets pruned nothing" >&2
    exit 1
  }
done

echo "dist_smoke: depth-10 safe-agreement at the sized split depth == local"
# No --split-depth: the coordinator cuts at the shallowest depth up to 3
# whose frontier gives each of the two workers at least four jobs. Over
# three pids that is depth 2 (nine jobs; depth 1 has three), and the
# fleet must still credit every schedule the local run does.
check_matches "--depth 10 --n-s 1" sized "verdict|schedules"
grep -q '"schedules": 59049' "$D/sized-local.fields"
grep -q '"split_depth": 2' "$D/sized-dist.json" \
  && grep -q '"jobs": 9' "$D/sized-dist.json" || {
  echo "dist_smoke: sized: want split depth 2 and 9 jobs" >&2
  grep -E '"(split_depth|jobs)"' "$D/sized-dist.json" >&2
  exit 1
}

echo "dist_smoke: race-false at depth 10: local, --reduce and fleet report one cex"
# Depth 10 holds many null moves (decided clients, finished helpers); the
# lex-least counterexample must survive them on every path. Each run's JSON
# cex, flattened, without the comma a following field adds; wfa modelcheck
# exits 1 on a violation.
RF="--scenario race-false --depth 10 --n-s 2"
race_cex() { # $1 = tag, then extra flags
  tag=$1
  shift
  # shellcheck disable=SC2086
  if "$WFA" modelcheck $RF "$@" --json "$D/rf-$tag.json" > /dev/null; then
    echo "dist_smoke: race-false $tag found no violation" >&2
    exit 1
  fi
  sed -n '/^  "cex": \[/,/^  \]/p' "$D/rf-$tag.json" | tr -d ' \n' \
    | sed 's/,$//'
}
LOCAL_CEX=$(race_cex local)
REDUCE_CEX=$(race_cex reduce --reduce)
DIST_CEX=$(race_cex dist --workers "$FLEET")
echo "  local:  $LOCAL_CEX"
echo "  reduce: $REDUCE_CEX"
echo "  fleet:  $DIST_CEX"
[ -n "$LOCAL_CEX" ] && [ "$LOCAL_CEX" = "$REDUCE_CEX" ] \
  && [ "$LOCAL_CEX" = "$DIST_CEX" ] || {
  echo "dist_smoke: counterexamples differ" >&2
  exit 1
}

echo "dist_smoke: read-collision at depth 6: local, --reduce and fleet find p2,p2,p1,p1"
# The memo's negative control: p1 reads Int 21395 or Int 35553, which a
# 30-bit value hash cannot tell apart. Every path must report the
# violation that run_replay finds, not credit it from the other read.
RC="--scenario read-collision --depth 6"
rc_cex() { # $1 = tag, then extra flags
  tag=$1
  shift
  # shellcheck disable=SC2086
  if "$WFA" modelcheck $RC "$@" --json "$D/rc-$tag.json" > /dev/null; then
    echo "dist_smoke: read-collision $tag found no violation" >&2
    exit 1
  fi
  sed -n '/^  "cex": \[/,/^  \]/p' "$D/rc-$tag.json" | tr -d ' \n' \
    | sed 's/,$//'
}
RC_WANT='"cex":["p2","p2","p1","p1"]'
for tag in local reduce dist; do
  case $tag in
    local) GOT=$(rc_cex local) ;;
    reduce) GOT=$(rc_cex reduce --reduce) ;;
    dist) GOT=$(rc_cex dist --workers "$FLEET") ;;
  esac
  echo "  $tag: $GOT"
  [ "$GOT" = "$RC_WANT" ] || {
    echo "dist_smoke: read-collision $tag: want $RC_WANT" >&2
    exit 1
  }
done

echo "dist_smoke: kill -9 a worker mid-run; the survivor absorbs its jobs"
# interval 0 journals a generation after accepted results (the coordinator
# spaces them 50 ms apart at least): a second generation means results are
# flowing, so the run is past its start. Split depth 8 deals 65,536 jobs,
# about 0.7 s of fleet work on a 2-vCPU host, so the run is not yet done;
# at split depth 5 its 1,024 jobs took about 50 ms, and the kill landed
# after the run in 11 of 30 tries.
"$WFA" modelcheck --depth 12 --n-s 2 --workers "$FLEET" --split-depth 8 \
  --checkpoint "$D/kill-store" --checkpoint-interval-s 0 \
  --json "$D/kill.json" > "$D/kill.out" &
RUN=$!
i=0
while [ "$(ls "$D/kill-store" 2>/dev/null | grep -c '^gen-')" -lt 2 ]; do
  i=$((i + 1))
  if [ "$i" -gt 600 ]; then
    echo "dist_smoke: no progress generation to kill on" >&2
    cat "$D/kill.out" >&2
    exit 1
  fi
  sleep 0.01
done
kill -9 "$W2" 2>/dev/null || true
wait "$RUN" || {
  echo "dist_smoke: run did not survive the worker kill" >&2
  cat "$D/kill.out" >&2
  exit 1
}
grep -q '"verdict": "ok"' "$D/kill.json" || {
  echo "dist_smoke: kill run lost the verdict" >&2
  exit 1
}
grep -q '"schedules": 16777216' "$D/kill.json" || {
  echo "dist_smoke: kill run miscounted (want 4^12)" >&2
  cat "$D/kill.json" >&2
  exit 1
}
grep -q '"workers_dead": 1' "$D/kill.json" || {
  echo "dist_smoke: the kill did not land mid-run (want workers_dead 1)" >&2
  cat "$D/kill.json" >&2
  exit 1
}
echo "  re-dispatch path exercised (1 worker dead, count still exact)"

trap - EXIT
kill "$W1" 2>/dev/null || true
rm -rf "$D"
echo "dist_smoke: ok"
