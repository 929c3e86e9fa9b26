# Pinned parser diagnostics: for every malformed (or edge-case) source
# in the corpus directory, `pmc <file>` must exit with the code and print
# exactly the stderr bytes recorded next to it. The stderr of a file with
# syntax errors is DiagnosticEngine::str() of parseWithRecovery followed
# by pmc's error count, so the corpus pins both the recovery behavior and
# every diagnostic's position and wording.
#
# Each <name>.pm has a <name>.expected whose first line is "exit <code>"
# and whose remaining lines are the expected stderr.
#
# usage: parse_diagnostics.sh <pmc> <corpus-dir>
set -u

PMC=$1
DIR=$2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail=0
count=0
for src in "$DIR"/*.pm; do
    name=$(basename "$src" .pm)
    expected="$DIR/$name.expected"
    if [ ! -f "$expected" ]; then
        echo "FAIL: $name: no $name.expected"
        fail=1
        continue
    fi
    "$PMC" "$src" >/dev/null 2>"$WORK/err"
    code=$?
    { echo "exit $code"; cat "$WORK/err"; } >"$WORK/actual"
    if ! cmp -s "$expected" "$WORK/actual"; then
        echo "FAIL: $name"
        diff "$expected" "$WORK/actual" | head -20
        fail=1
    fi
    count=$((count + 1))
done
[ "$count" -gt 0 ] || { echo "FAIL: no corpus files in $DIR"; exit 1; }
[ "$fail" = 0 ] && echo "ok: $count corpus files"
exit $fail
