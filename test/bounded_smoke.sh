#!/bin/sh
# CI smoke test for bounded work per request: start `wfa serve` under a
# 4 GB address-space cap and send, for each solve task, the largest request
# within Scenario.Spec's bounds (n = 1024, which has too many maximal inputs
# to draw one) and the largest ones whose inputs can still be drawn (a count
# just below max_int); for consensus and ksa also a request with more inputs
# than a 4 GB heap can list (2^24 and 4^12). Each must get an answer or a
# bad_request within 60 s, never a dead server; a ping must be answered
# afterwards. Each solve travels as a `scenario` spec that declares its
# expectation, so the spec itself is never refused for want of one.
# Then the CLI's flag modes: inputs the reader or a constructor refuses
# must exit 2 with one `wfa <command>:` line on stderr, never an uncaught
# exception.
set -eu

WFA=${WFA:-_build/default/bin/wfa.exe}
SOCK="/tmp/wfa-bounded-$$.sock"
OUT="/tmp/wfa-bounded-$$.out"

cleanup() {
  kill "$SRV" 2>/dev/null || true
  rm -f "$SOCK" "$OUT" "$OUT.err"
}

(ulimit -v 4194304 && exec "$WFA" serve --socket "$SOCK" --workers 1 --shards 1) &
SRV=$!
trap cleanup EXIT

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "bounded_smoke: socket never appeared" >&2; exit 1; }
  sleep 0.1
done

for params in \
  '{"task":"consensus","n":1024}' \
  '{"task":"consensus","n":24}' \
  '{"task":"consensus","n":61}' \
  '{"task":"ksa","n":1024,"k":1024}' \
  '{"task":"ksa","n":12,"k":3}' \
  '{"task":"ksa","n":30,"k":3}' \
  '{"task":"renaming","n":1024,"j":512}' \
  '{"task":"renaming","n":1024,"j":7}' \
  '{"task":"renaming","n":1024,"j":1023,"l":1024}' \
  '{"task":"wsb","n":1024,"j":512}' \
  '{"task":"wsb","n":1024,"j":7}' \
  '{"task":"wsb","n":1024,"j":1023}' \
  '{"task":"identity","n":1024}' \
  '{"task":"identity","n":61}'
do
  echo "bounded_smoke: solve $params"
  timeout 60 "$WFA" call --socket "$SOCK" scenario \
    --params "{\"v\":1,\"name\":\"bounded\",\"verb\":\"solve\",\"params\":$params,\"expect\":{\"outcome\":\"solves\"}}" \
    > "$OUT" 2>&1 || true
  if grep -q '"ok":' "$OUT"; then
    echo "  answered"
  elif grep -q 'bad_request' "$OUT"; then
    echo "  bad_request: $(tail -n 1 "$OUT")"
  else
    echo "bounded_smoke: no answer for $params:" >&2
    cat "$OUT" >&2
    exit 1
  fi
done

echo "bounded_smoke: the server still answers"
"$WFA" call --socket "$SOCK" ping

for args in \
  'solve --task renaming -j 5 -n 3' \
  'solve --task wsb -j 1 -n 3' \
  'solve --task consensus -n 62' \
  'solve -n 2000' \
  'fuzz --kind consensus-reduction -n 1' \
  'modelcheck --n-s 0 --depth 2'
do
  echo "bounded_smoke: wfa $args"
  cmd=${args%% *}
  rc=0
  # shellcheck disable=SC2086 # the flags are meant to split
  "$WFA" $args > "$OUT" 2> "$OUT.err" || rc=$?
  if [ "$rc" -ne 2 ] || [ "$(wc -l < "$OUT.err")" -ne 1 ] \
     || ! grep -q "^wfa $cmd: " "$OUT.err" \
     || grep -q 'uncaught exception' "$OUT.err"; then
    echo "bounded_smoke: wfa $args: expected exit 2 and one 'wfa $cmd:' line, got exit $rc:" >&2
    cat "$OUT.err" >&2
    exit 1
  fi
  echo "  refused: $(cat "$OUT.err")"
done
