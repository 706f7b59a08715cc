#!/bin/sh
# CI smoke test for the job server (DESIGN.md §5): start `wfa serve` in the
# background, script `wfa call` against it (a solve, model check or fuzz
# travels as a `scenario` spec), check that an oversized frame is
# rejected without desynchronizing the connection, that the binary codec
# produces field-for-field the same results as JSON, and that SIGTERM
# drains gracefully -- an in-flight call still gets its reply and the
# server exits 0 with the socket unlinked.
set -eu

WFA=${WFA:-_build/default/bin/wfa.exe}
SOCK="/tmp/wfa-smoke-$$.sock"
OUT="/tmp/wfa-smoke-$$.out"

cleanup() {
  kill "$SRV" 2>/dev/null || true
  rm -f "$SOCK" "$OUT" "$OUT.json" "$OUT.binary"
}

"$WFA" serve --socket "$SOCK" --workers 2 --shards 2 --max-frame 4096 &
SRV=$!
trap cleanup EXIT

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve_smoke: socket never appeared" >&2; exit 1; }
  sleep 0.1
done

# spec VERB PARAMS OUTCOME: the scenario spec that runs VERB on PARAMS
spec() {
  printf '{"v":1,"name":"smoke/%s","verb":"%s","params":%s,"expect":{"outcome":"%s"}}' \
    "$1" "$1" "$2" "$3"
}

echo "serve_smoke: solve"
"$WFA" call --socket "$SOCK" scenario \
  --params "$(spec solve '{"task":"consensus","n":3,"fd":"omega"}' solves)"

echo "serve_smoke: modelcheck"
"$WFA" call --socket "$SOCK" scenario \
  --params "$(spec modelcheck '{"depth":8}' safe)"

echo "serve_smoke: pipelined pings on one connection"
PIPE_OUT=$("$WFA" call --socket "$SOCK" ping --pipeline 64)
echo "$PIPE_OUT"
case "$PIPE_OUT" in
  *"ok 64, failed 0"*) ;;
  *) echo "serve_smoke: pipelined calls lost replies" >&2; exit 1 ;;
esac

echo "serve_smoke: oversized frame is rejected"
BIG=$(head -c 8192 /dev/zero | tr '\0' 'a')
if "$WFA" call --socket "$SOCK" ping --params "{\"pad\":\"$BIG\"}"; then
  echo "serve_smoke: oversized frame unexpectedly accepted" >&2
  exit 1
fi

# the connection-level reject must not have broken the server
echo "serve_smoke: server still answers after the reject"
"$WFA" call --socket "$SOCK" stats

# the codec differential: the same deterministic call over each codec must
# print the same JSON, field for field (wall_s is wall-clock, the one
# volatile field in these reports)
codec_diff() {
  echo "serve_smoke: codec differential: $1"
  "$WFA" call --socket "$SOCK" "$2" --params "$3" --codec json \
    | grep -v '"wall_s"' > "$OUT.json"
  "$WFA" call --socket "$SOCK" "$2" --params "$3" --codec binary \
    | grep -v '"wall_s"' > "$OUT.binary"
  if ! diff -u "$OUT.json" "$OUT.binary"; then
    echo "serve_smoke: codec outputs diverge for $1" >&2
    exit 1
  fi
  rm -f "$OUT.json" "$OUT.binary"
}
codec_diff ping ping '{}'
codec_diff modelcheck scenario "$(spec modelcheck '{"depth":7}' safe)"
codec_diff solve scenario \
  "$(spec solve '{"task":"consensus","n":3,"seed":7}' solves)"

echo "serve_smoke: SIGTERM drains the in-flight call"
"$WFA" call --socket "$SOCK" scenario \
  --params "$(spec fuzz '{"kind":"strong-renaming","n":5,"j":3,"budget":20000}' violation)" \
  > "$OUT" &
CALL=$!
sleep 0.3
kill -TERM "$SRV"
wait "$CALL" # the accepted in-flight call must still get its reply
wait "$SRV"  # and the server must drain and exit 0
[ -s "$OUT" ] || { echo "serve_smoke: in-flight reply missing" >&2; exit 1; }
[ ! -S "$SOCK" ] || { echo "serve_smoke: socket not unlinked" >&2; exit 1; }

trap - EXIT
rm -f "$OUT"
echo "serve_smoke: ok"
