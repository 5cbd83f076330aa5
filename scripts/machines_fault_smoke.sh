#!/usr/bin/env bash
# Per-machine fault-regime smoke test: run the machine-matrix study with
# fault injection enabled on the two machines whose degraded-path story
# EXPERIMENTS.md leans on — the modern-shaped core and the paper's §7
# projected 266 MHz successor — and diff the report against the checked-in
# golden. Like every study, the report must be byte-identical at any
# -parallel width, which the script checks by running serial and 8-wide.
# Any drift means the degraded path, a transport timer, or a machine model
# changed and the golden needs a deliberate refresh.
#
#   REGEN=1 ./scripts/machines_fault_smoke.sh   # refresh the golden
set -euo pipefail
cd "$(dirname "$0")/.."

golden=testdata/machines_fault_smoke.golden
models=modern,future266
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/protolat -machines "$models" -rates 0,0.05 -seed 11 -parallel 1 \
    > "$tmp/serial.txt"
go run ./cmd/protolat -machines "$models" -rates 0,0.05 -seed 11 -parallel 8 \
    > "$tmp/parallel.txt"

diff -u "$tmp/serial.txt" "$tmp/parallel.txt" || {
    echo "FAIL: fault-regime machine study is not byte-identical at -parallel 1 vs 8" >&2
    exit 1
}

# Structural claim, independent of the golden: on every machine and every
# version, the lossy rate's roundtrip latency (Te) must exceed the clean
# rate's — retransmission timers dominate Te, so a degraded cell that got
# cheaper means fault accounting broke.
awk '
    /^[a-z0-9-]+ — / {model = $1}
    model != "" && $2 == "0.00" && $1 ~ /^(BAD|STD|OUT|CLO|PIN|ALL)$/ {clean[model $1] = $3}
    model != "" && $2 == "0.05" && $1 ~ /^(BAD|STD|OUT|CLO|PIN|ALL)$/ {
        if ($3 + 0 <= clean[model $1] + 0) {
            print "FAIL: " model " " $1 ": degraded Te (" $3 ") not worse than clean (" clean[model $1] ")"
            exit 1
        }
    }' "$tmp/serial.txt" || exit 1

if [[ "${REGEN:-0}" = "1" ]]; then
    mkdir -p testdata
    cp "$tmp/serial.txt" "$golden"
    echo "regenerated $golden"
    exit 0
fi

diff -u "$golden" "$tmp/serial.txt" || {
    echo "FAIL: fault-regime machine report drifted from $golden (REGEN=1 to accept)" >&2
    exit 1
}
echo "machines fault smoke OK: parallel-identical, faults always cost Te, matching golden"
