#!/usr/bin/env bash
# Smoke checks of the installed homcat console script: help, an input
# error, ranks of induced maps over Q, a closed stdout, the README flip
# example, both homotopy verdicts and a degree too long to write.
# Run after installing homcat, from any directory:
#   bash .github/cli_smoke.sh
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

# expect_one_line CODE COMMAND...: COMMAND exits CODE with one line on stderr
expect_one_line() {
    local want=$1 code=0
    shift
    "$@" 2> err.txt || code=$?
    cat err.txt >&2
    test "$code" -eq "$want"
    test "$(wc -l < err.txt)" -eq 1
}

echo "== help"
homcat --help

echo "== a command and an input error"
echo '{"field": {"kind": "prime", "p": 5}, "objects": {"A": {"dims": {"0": 1}}}}' > one.json
homcat validate one.json | tee validate.out
grep -q '"ok": true' validate.out
expect_one_line 2 homcat qis one.json nope

echo "== ranks of induced maps over Q"
echo '{"field": {"kind": "rational"}, "objects": {"P": {"dims": {"0": 2}}}, "maps": {"sP": {"from": "P", "to": "P", "components": {"0": [["2/3", 1], [0, "-1/5"]]}}, "nP": {"from": "P", "to": "P", "components": {"0": [["1/2", 1], ["1/4", "1/2"]]}}}}' > rational.json
homcat qis rational.json sP
code=0
homcat qis rational.json nP > qis_rank1.out || code=$?
cat qis_rank1.out
test "$code" -eq 1
grep -q '"result": false' qis_rank1.out
homcat les rational.json nP | tee les.out
grep -q '"exact": true' les.out

echo "== a closed stdout"
expect_one_line 2 homcat validate one.json >&-

echo "== the README flip example"
echo '{"field": {"kind": "prime", "p": 5}, "objects": {"L": {"dims": {"0": 1}}, "M": {"dims": {"0": 1}}, "K": {"dims": {"0": 1}}}, "maps": {"alpha": {"from": "L", "to": "K", "components": {"0": [[2]]}}, "beta": {"from": "M", "to": "K", "components": {"0": [[1]]}}}}' > cospan.json
homcat flip cospan.json alpha beta > flipped.json
homcat validate flipped.json
homcat qis flipped.json gamma2

echo "== both homotopy verdicts"
echo '{"field": {"kind": "prime", "p": 5}, "objects": {"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [[1]]}}, "P": {"dims": {"0": 1}}}, "maps": {"idA": {"from": "A", "to": "A", "components": {"0": [[1]], "1": [[1]]}}, "zA": {"from": "A", "to": "A"}, "idP": {"from": "P", "to": "P", "components": {"0": [[1]]}}, "zP": {"from": "P", "to": "P"}}}' > homotopic.json
homcat homotopic homotopic.json idA zA > witness.json
grep -q '"witness"' witness.json
homcat validate witness.json
code=0
homcat homotopic homotopic.json idP zP > none.out || code=$?
cat none.out
test "$code" -eq 1
grep -q '"result": "none"' none.out

echo "== a degree too long to write"
echo '{"field": {"kind": "prime", "p": 5}, "objects": {"A": {"dims": {"1": 1}}}}' > degree.json
expect_one_line 2 homcat shift degree.json A "-$(head -c 4300 /dev/zero | tr '\0' 9)"
grep -q "a degree is too long to write" err.txt
