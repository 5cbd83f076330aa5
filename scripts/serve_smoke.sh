#!/usr/bin/env bash
# Serve smoke test: exercise the experiment daemon end to end through the
# real binary — no test hooks — and require its four robustness guarantees:
#
#   1. identical specs are memoized: the second submission is a store hit
#      and byte-identical to the computed response,
#   2. concurrent identical submissions return byte-identical documents,
#   3. SIGTERM drains gracefully: the in-flight job completes with a 200,
#      the daemon exits 0, and a restarted daemon serves the result from
#      its store,
#   4. kill -9 mid-job loses nothing: the restarted daemon replays the
#      journaled job, and the result is byte-identical to one computed by
#      an undisturbed daemon.
#
# Every wait is a bounded poll on daemon output or store files, so the
# script is safe on a single-core runner.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'kill -9 "${DPID:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/protolat" ./cmd/protolat

printf '{"kind":"lint"}\n' > "$tmp/lint.json"
printf '{"kind":"run","version":"STD","samples":1}\n' > "$tmp/run.json"
# A paper-quality machine study over every model runs for a few hundred
# milliseconds, several times the 50 ms poll below, so its job file is
# observable while the job is in flight.
printf '{"kind":"machines","quality":"paper","seed":7}\n' > "$tmp/slow.json"
printf '{"kind":"machines","quality":"paper","seed":9}\n' > "$tmp/slow2.json"

# start_daemon <store> <log>: launch the daemon on a free port, wait for
# its announcement line, and export DPID/DADDR.
start_daemon() {
    "$tmp/protolat" -serve -addr 127.0.0.1:0 -store "$1" 2> "$2" &
    DPID=$!
    for _ in $(seq 1 300); do
        DADDR=$(sed -n 's/^protolat: serving on \([^ ]*\).*/\1/p' "$2")
        [ -n "$DADDR" ] && return 0
        sleep 0.1
    done
    echo "FAIL: daemon did not announce a listen address (log: $(cat "$2"))" >&2
    exit 1
}

# wait_gone <glob>: poll until no file matches, e.g. for a journaled job
# to finish.
wait_gone() {
    for _ in $(seq 1 1200); do
        compgen -G "$1" > /dev/null || return 0
        sleep 0.05
    done
    echo "FAIL: timed out waiting for $1 to clear" >&2
    exit 1
}

# wait_present <glob>: poll until a file matches.
wait_present() {
    for _ in $(seq 1 1200); do
        compgen -G "$1" > /dev/null && return 0
        sleep 0.05
    done
    echo "FAIL: timed out waiting for $1 to appear" >&2
    exit 1
}

# --- 1. memoization -------------------------------------------------------
store1=$tmp/store1
start_daemon "$store1" "$tmp/d1.log"

"$tmp/protolat" -addr "$DADDR" -submit "$tmp/lint.json" > "$tmp/r1.json" 2> "$tmp/r1.err"
grep -q 'cache: computed' "$tmp/r1.err" || {
    echo "FAIL: first submission was not computed: $(cat "$tmp/r1.err")" >&2
    exit 1
}
"$tmp/protolat" -addr "$DADDR" -submit "$tmp/lint.json" > "$tmp/r2.json" 2> "$tmp/r2.err"
grep -q 'cache: hit' "$tmp/r2.err" || {
    echo "FAIL: second submission was not a store hit: $(cat "$tmp/r2.err")" >&2
    exit 1
}
cmp -s "$tmp/r1.json" "$tmp/r2.json" || {
    echo "FAIL: memoized response differs from the computed one" >&2
    exit 1
}

# --- 2. concurrent identical submissions ----------------------------------
"$tmp/protolat" -addr "$DADDR" -submit "$tmp/run.json" > "$tmp/c1.json" 2> /dev/null &
cpid1=$!
"$tmp/protolat" -addr "$DADDR" -submit "$tmp/run.json" > "$tmp/c2.json" 2> /dev/null &
cpid2=$!
wait "$cpid1" "$cpid2"
cmp -s "$tmp/c1.json" "$tmp/c2.json" || {
    echo "FAIL: concurrent identical submissions returned different documents" >&2
    exit 1
}

# --- 3. SIGTERM drain with in-flight work ---------------------------------
"$tmp/protolat" -addr "$DADDR" -submit "$tmp/slow.json" > "$tmp/bg.json" 2> /dev/null &
bgpid=$!
wait_present "$store1/*.job.json"
kill -TERM "$DPID"
wait "$bgpid" || {
    echo "FAIL: in-flight submission failed during drain" >&2
    exit 1
}
wait "$DPID" || {
    echo "FAIL: daemon exited nonzero after SIGTERM drain" >&2
    exit 1
}
unset DPID
[ -s "$tmp/bg.json" ] || {
    echo "FAIL: drained submission returned an empty document" >&2
    exit 1
}

# --- restart: the drained job's result survives in the store --------------
start_daemon "$store1" "$tmp/d2.log"
"$tmp/protolat" -addr "$DADDR" -submit "$tmp/slow.json" > "$tmp/r3.json" 2> "$tmp/r3.err"
grep -q 'cache: hit' "$tmp/r3.err" || {
    echo "FAIL: restarted daemon recomputed a stored result: $(cat "$tmp/r3.err")" >&2
    exit 1
}
cmp -s "$tmp/bg.json" "$tmp/r3.json" || {
    echo "FAIL: restarted daemon's stored document differs from the drained response" >&2
    exit 1
}
kill -TERM "$DPID" && wait "$DPID" || true
unset DPID

# --- 4. kill -9 mid-job, replay, byte-identical result -------------------
store2=$tmp/store2
start_daemon "$store2" "$tmp/d3.log"
("$tmp/protolat" -addr "$DADDR" -submit "$tmp/slow2.json" > /dev/null 2>&1 || true) &
# The job file is written at admission and dropped once the document is
# stored, so while it exists the job is in flight.
wait_present "$store2/*.job.json"
kill -9 "$DPID"
wait "$DPID" 2> /dev/null || true
unset DPID
compgen -G "$store2/*.doc.json" > /dev/null && {
    echo "FAIL: the job finished before kill -9 landed; nothing was left to replay" >&2
    exit 1
}
compgen -G "$store2/*.job.json" > /dev/null || {
    echo "FAIL: kill -9 mid-job left no journaled job to replay" >&2
    exit 1
}

start_daemon "$store2" "$tmp/d4.log"
wait_gone "$store2/*.job.json"
"$tmp/protolat" -addr "$DADDR" -submit "$tmp/slow2.json" > "$tmp/rec.json" 2> "$tmp/rec.err"
grep -q 'cache: hit' "$tmp/rec.err" || {
    echo "FAIL: replayed job did not memoize its result: $(cat "$tmp/rec.err")" >&2
    exit 1
}
kill -TERM "$DPID" && wait "$DPID" || true
unset DPID

store3=$tmp/store3
start_daemon "$store3" "$tmp/d5.log"
"$tmp/protolat" -addr "$DADDR" -submit "$tmp/slow2.json" > "$tmp/ref.json" 2> /dev/null
cmp -s "$tmp/rec.json" "$tmp/ref.json" || {
    echo "FAIL: crash-recovered document differs from an undisturbed daemon's" >&2
    exit 1
}
kill -TERM "$DPID" && wait "$DPID" || true
unset DPID

echo "serve smoke OK: memoized, coalesced, drained, crash-recovered byte-identical"
