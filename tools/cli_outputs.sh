#!/bin/sh
# Record the stdout and exit code of a fixed set of gorlab CLI calls.
#
# Usage: tools/cli_outputs.sh SRC OUT
#
# SRC is a gorlab source tree (a checkout or a `git archive` of one); its
# src/ directory is put on PYTHONPATH.  One file per call is written to OUT:
# the call's stdout followed by a line "exit: <code>" and a line
# "stderr: none|error|traceback" that says whether the call wrote nothing to
# stderr, a message, or a Python traceback.  The stderr text itself holds
# temporary paths, so only its kind is recorded.  Two trees give the same
# CLI output when `diff -r OUT1 OUT2` is empty.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
out=$2
mkdir -p "$out"

err=$(mktemp)
trap 'rm -f "$err"' EXIT

call() {   # call NAME ARGS...: run one CLI call, record stdout, exit code
           # and the kind of its stderr
    name=$1
    shift
    set +e
    PYTHONPATH="$src" python3 -m gorlab.cli "$@" > "$out/$name" 2> "$err"
    code=$?
    set -e
    echo "exit: $code" >> "$out/$name"
    if grep -q '^Traceback' "$err"; then
        echo "stderr: traceback" >> "$out/$name"
    elif [ -s "$err" ]; then
        echo "stderr: error" >> "$out/$name"
    else
        echo "stderr: none" >> "$out/$name"
    fi
}

fixtures=$(PYTHONPATH="$src" python3 -c \
    'from gorlab import fixtures; print(" ".join(fixtures.FIXTURE_NAMES))')
for fx in $fixtures; do
    for fmt in json text; do
        call "endo-$fx.$fmt" --format "$fmt" endo --fixture "$fx"
    done
done
for fx in gf4-local-gendo penny-farthing-gendo auslander-22; do
    call "endo-seed7-$fx.text" --seed 7 endo --fixture "$fx"
done
# closed-form Nakayama reports: a cyclic series, a symmetric one and a
# linear one, in every format
for fmt in text json csv; do
    call "nakayama-4-5-5.$fmt" --format "$fmt" nakayama 4,5,5
    call "nakayama-4-4-4.$fmt" --format "$fmt" nakayama 4,4,4
    call "nakayama-linear-3-2-1.$fmt" --format "$fmt" nakayama 3,2,1 --linear
done
call suite.json --format json suite
call suite-seed7.text --seed 7 suite
call scan-3-7.csv scan 3 7
call scan-seed7-3-7.csv --seed 7 scan 3 7
call module-1-3-kupisch-455.json --format json module '[1,3]' --fixture kupisch-455
call module-seed7-1-3-kupisch-455.json --seed 7 --format json module '[1,3]' --fixture kupisch-455
call module-0-2-kupisch-56.json --format json module '[0,2]' --fixture kupisch-56
call module-2-4-kupisch-455.text module '[2,4]' --fixture kupisch-455
call endo-kupisch-455.csv --format csv endo --fixture kupisch-455
call scan-2-3.text --format text scan 2 3
call endo-jobs2-kupisch-455.text --jobs 2 endo --fixture kupisch-455
call module-gpi-gf4-local-gendo.json --format json module extra:gpi_candidate --fixture gf4-local-gendo
call module-e2j2-penny-farthing-gendo.json --format json module hom:e2j2 --fixture penny-farthing-gendo
# a hom_functor image over the 33-dimensional B: pins the Hom-basis order
# over the largest fixture
call module-hom-generator-extra-sym-777-gendo.json --format json module hom:generator_extra --fixture sym-777-gendo
call endo-f3-penny-farthing-gendo.json --field 3 --format json endo --fixture penny-farthing-gendo
call endo-f5-two-periodic-demo.json --field 5 --format json endo --fixture two-periodic-demo
call module-f5-hom-w-two-periodic-demo.json --field 5 --format json module hom:w --fixture two-periodic-demo
call module-hom-domdim4-penny-farthing-gendo.json --format json module hom:domdim4_module --fixture penny-farthing-gendo
call module-extra-base-series-sym-777-gendo.json --format json module extra:base_series --fixture sym-777-gendo
# codominant dimension, injective dimension and GI run through the
# opposite algebra; these two have non-symmetric Cartan matrices
call module-0-1-a2-line.json --format json module '[0,1]' --fixture a2-line
call module-1-2-kupisch-455.json --format json module '[1,2]' --fixture kupisch-455
# the largest prime field, through the small elimination kernel's arithmetic
call module-f65521-1-3-kupisch-455.json --field 65521 --format json module '[1,3]' --fixture kupisch-455
# small cutoffs, where the bound cuts the dimension searches and the
# answers are AtLeast values
call module-cutoff1-2-4-kupisch-455.text --cutoff 1 module '[2,4]' --fixture kupisch-455
call endo-cutoff2-sym-777-gendo.text --cutoff 2 endo --fixture sym-777-gendo
call module-cutoff2-e2j2-penny-farthing-gendo.json --cutoff 2 --format json module hom:e2j2 --fixture penny-farthing-gendo
call endo-cutoff2-gf4-local-gendo.json --cutoff 2 --format json endo --fixture gf4-local-gendo
# at cutoff 1 Müller's dominant dimension of penny-farthing-gendo reads >=2,
# so Chen-Koenig reports its formula degenerate
call endo-cutoff1-penny-farthing-gendo.json --cutoff 1 --format json endo --fixture penny-farthing-gendo
# at cutoff 1 auslander-22's dominant dimension reads >=2, which leaves the
# check that it equals 2 undecided
call suite-cutoff1.text --cutoff 1 suite
# malformed module specs: each must exit 1 with an error message, never a
# traceback (the message goes to stderr, whose kind is recorded)
specs=$(mktemp -d)
trap 'rm -rf "$specs" "$err"' EXIT
echo '{}' > "$specs/empty.json"
echo '[1, 2]' > "$specs/list.json"
echo '{"algebra_ref": "kupisch-455", "label": "x"}' > "$specs/no-dim.json"
echo '{"algebra_ref": "kupisch-455", "dim": 2, "action": [[1, 0], [0, 1]]}' \
    > "$specs/bad-shape.json"
# module files that go through make_module (and validate, for an algebra
# file): the simple S_0 over kupisch-455 (basis 0 is e_0, basis 1 the arrow
# out of vertex 0); a line where e_0 and that arrow both act by 1, which
# breaks the structure constants; S_0 over a copy of the kupisch-455
# algebra with one structure constant corrupted, which is not associative
zeros12='0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0'
echo "{\"algebra_ref\": \"kupisch-455\", \"dim\": 1, \"action\": [1, 0, $zeros12]}" \
    > "$specs/s0.json"
echo "{\"algebra_ref\": \"kupisch-455\", \"dim\": 1, \"action\": [1, 1, $zeros12]}" \
    > "$specs/off-mult.json"
PYTHONPATH="$src" python3 -c '
import sys
from gorlab import fixtures, serialize as ser
d = ser.algebra_to_json(fixtures.build_fixture("kupisch-455").algebra)
d["mult"][3][3][0] = 1
ser.dump_json(d, sys.argv[1])' "$specs/nonassoc-455.json"
echo "{\"algebra_ref\": \"$specs/nonassoc-455.json\", \"dim\": 1, \"action\": [1, 0, $zeros12]}" \
    > "$specs/nonassoc.json"
call module-file-s0-kupisch-455.json --format json module "@$specs/s0.json"
# a decomposable module in perp A, [0,3] + [1,2] over kupisch-455, whose GP
# test goes on to the transpose of the sum
PYTHONPATH="$src" python3 -c '
import sys
from gorlab import fixtures, modrep as mr, serialize as ser
a = fixtures.build_fixture("kupisch-455").algebra
m = mr.direct_sum([mr.bridge_module(a, 0, 3), mr.bridge_module(a, 1, 2)])
ser.dump_json(ser.module_to_json(m, "kupisch-455"), sys.argv[1])' \
    "$specs/sum-0-3-1-2.json"
call module-file-sum-0-3-1-2-kupisch-455.json --format json module "@$specs/sum-0-3-1-2.json"
call module-error-file-off-mult.text module "@$specs/off-mult.json"
call module-error-file-nonassoc-algebra.text module "@$specs/nonassoc.json"
call module-error-1-3-no-fixture.text module '[1,3]'
call module-error-hom-w-no-fixture.text module hom:w
call module-error-9-9-kupisch-455.text module '[9,9]' --fixture kupisch-455
call module-error-0-9-kupisch-455.text module '[0,9]' --fixture kupisch-455
call module-error-1-kupisch-455.text module '[1]' --fixture kupisch-455
call module-error-a-b-kupisch-455.text module '[a,b]' --fixture kupisch-455
call module-error-file-empty-kupisch-455.text module "@$specs/empty.json" --fixture kupisch-455
call module-error-file-list-kupisch-455.text module "@$specs/list.json" --fixture kupisch-455
call module-error-file-no-dim.text module "@$specs/no-dim.json"
call module-error-file-bad-shape.text module "@$specs/bad-shape.json"
