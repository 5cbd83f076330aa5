#!/usr/bin/env bash
# Documentation drift gate: docs/CLI.md must list exactly the flags the
# binaries accept. For each command we extract the flag set from `-help`
# and diff it, both directions, against the flags documented in that
# command's section of docs/CLI.md. A flag added to a command without a
# docs update — or documented but removed from the command — fails the
# build. docs/MACHINES.md is held to the same standard: every model in
# the machine matrix must have its own section there.
set -euo pipefail
cd "$(dirname "$0")/.."

DOC=docs/CLI.md
fail=0

for cmd in protolat protovet; do
	# Flag names from the flag package's -help output ("  -name ...").
	real=$(go run ./cmd/"$cmd" -help 2>&1 | sed -n 's/^  -\([a-z][a-z0-9]*\).*/\1/p' | sort -u)

	# Flag names documented in this command's section: table rows of the
	# form "| `-name ...` | default | meaning |" between "## cmd" and the
	# next "## " heading.
	documented=$(awk -v section="## $cmd" '
		$0 == section {in_section=1; next}
		/^## / {in_section=0}
		in_section' "$DOC" | sed -n 's/^| `-\([a-z][a-z0-9]*\).*/\1/p' | sort -u)

	missing=$(comm -23 <(echo "$real") <(echo "$documented"))
	stale=$(comm -13 <(echo "$real") <(echo "$documented"))

	if [ -n "$missing" ]; then
		echo "doc_check: $cmd flags missing from $DOC:" $missing >&2
		fail=1
	fi
	if [ -n "$stale" ]; then
		echo "doc_check: $DOC documents $cmd flags the binary no longer has:" $stale >&2
		fail=1
	fi
done

# Machine-matrix reference drift: every model the binary knows must have a
# section in docs/MACHINES.md (headed "## <name>"), so a model added to
# internal/machines without documentation fails the build.
MACHDOC=docs/MACHINES.md
for model in $(go run ./cmd/protolat -machines list | awk '{print $1}'); do
	if ! grep -qx "## $model" "$MACHDOC"; then
		echo "doc_check: model \"$model\" is in the matrix but has no \"## $model\" section in $MACHDOC" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "doc_check: FAIL — update docs/CLI.md / docs/MACHINES.md to match the binaries" >&2
	exit 1
fi
echo "doc_check: docs/CLI.md matches all command flag sets; docs/MACHINES.md covers the matrix"
