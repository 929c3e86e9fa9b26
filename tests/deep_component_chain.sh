# Deep component chains: a generated program whose 10,000 components
# each instantiate the next (main -> f1 -> ... -> f9999) used to
# overflow the stack of pmc and of a pmcd worker. Now:
#   - pmc rejects it with exit 1 and a positioned diagnostic;
#   - a chain exactly kMaxComponentDepth (256) deep compiles;
#   - a live pmcd answers the deep chain with code 1, serves the next
#     request, and keeps completed + rejected == offered.
#
# usage: deep_component_chain.sh <pmc> <pmcd>
set -u

PMC=$1
PMCD=$2

WORK=$(mktemp -d)
SOCK="$WORK/pmcd.sock"
DAEMON_PID=
trap '[ -n "$DAEMON_PID" ] && kill $DAEMON_PID 2>/dev/null; rm -rf "$WORK"' EXIT

# chain <n>: main -> f1 -> ... -> f<n-1>; component i's call is on line
# 3i + 2, column 5.
chain() {
    awk -v n="$1" 'BEGIN {
        for (i = 0; i < n; i++) {
            printf "%s(input float x, output float y) {\n", i ? "f" i : "main"
            if (i + 1 < n)
                printf "    f%d(x, y);\n}\n", i + 1
            else
                printf "    y = x + 1;\n}\n"
        }
    }'
}
chain 10000 > "$WORK/deep.pm"
chain 256 > "$WORK/bound.pm"
diag='767:5: error: component instantiation nested deeper than 256 levels'

fail=0
expect() { # expect <name> <want-exit> <got-exit>
    if [ "$2" != "$3" ]; then
        echo "FAIL: $1: exit $3, want $2"
        fail=1
    fi
}

"$PMC" --target DA "$WORK/deep.pm" >/dev/null 2>"$WORK/err"
expect "pmc deep chain" 1 $?
grep -qF "$diag" "$WORK/err" || { echo "FAIL: pmc: no '$diag'"; cat "$WORK/err"; fail=1; }
"$PMC" --target DA --simulate "$WORK/bound.pm" >/dev/null
expect "pmc chain at the bound" 0 $?

"$PMCD" --socket "$SOCK" -j 2 2>"$WORK/daemon.log" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.05
done
[ -S "$SOCK" ] || { echo "FAIL: daemon never created $SOCK"; exit 1; }

"$PMC" --connect "$SOCK" --target DA --simulate "$WORK/deep.pm" \
    >/dev/null 2>"$WORK/err"
expect "pmcd deep chain" 1 $?
grep -qF "$diag" "$WORK/err" || { echo "FAIL: pmcd: no '$diag'"; cat "$WORK/err"; fail=1; }
"$PMC" --connect "$SOCK" --target DA --simulate "$WORK/bound.pm" >/dev/null
expect "pmcd chain at the bound" 0 $?

"$PMCD" --socket "$SOCK" --shutdown >"$WORK/stats" 2>&1
expect "pmcd --shutdown" 0 $?
wait $DAEMON_PID
expect "pmcd exit" 0 $?
DAEMON_PID=
awk '$1 == "pmcd:" { s[$2] = $3 }
     END { exit !(s["offered"] == 2 && s["completed"] + s["rejected"] == s["offered"]) }' \
    "$WORK/stats" || { echo "FAIL: pmcd books:"; cat "$WORK/stats"; fail=1; }

[ "$fail" = 0 ] && echo "ok: deep component chains"
exit $fail
