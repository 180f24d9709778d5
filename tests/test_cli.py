import contextlib
import csv
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import cli
from gorlab import fixtures as fx
from gorlab import linalg as la
from gorlab import modrep as mr
from gorlab import serialize as ser


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_nakayama_455_text_report():
    code, text = run(["nakayama", "4,5,5"])
    assert code == 0
    assert "domdim                 2" in text
    assert "fdomdim                4" in text
    assert "GPI: [[1, 3], [1, 5], [2, 5]]" in text
    assert "seed=0 cutoff=24" in text


def test_nakayama_56_infinite_gorenstein_certified():
    code, text = run(["nakayama", "5,6"])
    assert code == 0
    assert "gordim_left            inf [" in text   # certified, never bare


def test_nakayama_json_round_trips():
    code, text = run(["--format", "json", "nakayama", "4,5,5"])
    assert code == 0
    rep = json.loads(text)
    assert rep["schema_version"] == ser.SCHEMA_VERSION
    assert ser.dim_from_json(rep["domdim"]) == 2
    assert rep["resolution_quiver"]["successor"] == {"0": 1, "1": 0, "2": 1}


def test_nakayama_linear():
    code, text = run(["nakayama", "2,1", "--linear"])
    assert code == 0
    assert "(linear)" in text


def test_invalid_series_is_input_error():
    code, _ = run(["nakayama", "1,5"])
    assert code == 1
    code, _ = run(["nakayama", "bogus"])
    assert code == 1


def test_bad_flags_are_input_errors():
    assert run(["--cutoff", "0", "nakayama", "4,5,5"])[0] == 1
    assert run(["--field", "9", "nakayama", "4,5,5"])[0] == 1
    assert run(["--jobs", "0", "nakayama", "4,5,5"])[0] == 1
    # a format the subcommand does not write, and --jobs outside scan
    for argv in (["--format", "json", "suite"], ["--format", "csv", "suite"],
                 ["--format", "csv", "endo", "--fixture", "kupisch-455"],
                 ["--format", "csv", "module", "[1,3]",
                  "--fixture", "kupisch-455"],
                 ["--format", "json", "scan", "2", "3"],
                 ["--format", "text", "scan", "2", "3"],
                 ["--jobs", "2", "nakayama", "4,5,5"],
                 ["--jobs", "2", "endo", "--fixture", "kupisch-455"]):
        assert run(argv) == (1, ""), argv


def test_declared_formats_and_scan_jobs():
    assert run(["--format", "csv", "scan", "2", "3"]) == run(["scan", "2", "3"])
    assert run(["--jobs", "2", "scan", "2", "3"]) == run(["scan", "2", "3"])
    assert run(["--format", "text", "suite", "--fixture", "a2-line"]) == \
        run(["suite", "--fixture", "a2-line"])
    code, text = run(["--format", "csv", "nakayama", "4,5,5"])
    assert code == 0 and text.startswith("schema_version,module,")


def test_scan_starts_no_more_workers_than_series(monkeypatch):
    # a stand-in pool that records its size and maps in this process, so
    # that no worker is ever started
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    n_series = len(list(cli._cyclic_series(2, 3)))
    serial = run(["scan", "2", "3"])
    for jobs in (2, n_series, n_series + 1, 10 ** 6):
        assert run(["--jobs", str(jobs), "scan", "2", "3"]) == serial
    assert sizes == [2, n_series, n_series, n_series]


def test_module_coordinate_spec():
    code, text = run(["module", "[0,3]", "--fixture", "kupisch-455"])
    assert code == 0
    assert "domdim     4" in text


def test_module_unknown_spec_is_input_error():
    assert run(["module", "nonsense", "--fixture", "kupisch-455"])[0] == 1
    assert run(["module", "extra:nope", "--fixture", "kupisch-455"])[0] == 1


# module files written for the @file.json specs below
MODULE_FILES = {
    "empty.json": "{}",
    "list.json": "[1, 2]",
    "no-dim.json": '{"algebra_ref": "kupisch-455", "label": "x"}',
    "bad-shape.json": '{"algebra_ref": "kupisch-455", "dim": 2, '
                      '"action": [[1, 0], [0, 1]]}',
}


@pytest.mark.parametrize("argv", [
    ["module", "hom:domdim4_module", "--fixture", "penny-farthing-gendo"],
    ["module", "extra:base_series", "--fixture", "sym-777-gendo"],
    ["module", "[1,3]"],
    ["module", "hom:w"],
    ["module", "[9,9]", "--fixture", "kupisch-455"],
    ["module", "[0,9]", "--fixture", "kupisch-455"],
    ["module", "[1]", "--fixture", "kupisch-455"],
    ["module", "[a,b]", "--fixture", "kupisch-455"],
    ["module", "@empty.json", "--fixture", "kupisch-455"],
    ["module", "@list.json", "--fixture", "kupisch-455"],
    ["module", "@no-dim.json"],
    ["module", "@bad-shape.json"],
])
def test_module_spec_of_a_non_module_or_wrong_algebra_is_input_error(
        argv, capsys, tmp_path, monkeypatch):
    for name, text in MODULE_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(argv)[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--fixture name is required" not in err or "--fixture" not in argv


def test_module_file_round_trip_same_seed_same_report(tmp_path):
    f = fx.build_fixture("kupisch-455")
    m = mr.bridge_module(f.algebra, 1, 3)
    apath = tmp_path / "alg.json"
    ser.dump_json(ser.algebra_to_json(f.algebra), str(apath))
    mpath = tmp_path / "mod.json"
    ser.dump_json(ser.module_to_json(m, algebra_ref=str(apath)), str(mpath))

    code1, rep1 = run(["--format", "json", "module", "@%s" % mpath])
    code2, rep2 = run(["--format", "json", "module", "@%s" % mpath])
    assert code1 == code2 == 0
    assert rep1 == rep2
    parsed = json.loads(rep1)
    # emitted module JSON re-validates
    m2 = ser.module_from_json(parsed["module"],
                              ser.algebra_from_json(ser.load_json(str(apath))))
    assert m2.dim == m.dim
    assert parsed["verdicts"]["gpi"]["status"] == "yes"


def test_module_file_report_names_the_algebra_of_the_file(tmp_path, capsys):
    # e_0A/e_0J^2 over kupisch-56 (dimension 11), not kupisch-455 (14)
    a = fx.build_fixture("kupisch-56").algebra
    mpath = tmp_path / "m56.json"
    ser.dump_json(ser.module_to_json(mr.bridge_module(a, 0, 2), "kupisch-56"),
                  str(mpath))
    reports = []
    for extra in ([], ["--fixture", "kupisch-56"]):
        code, text = run(["--format", "json", "module", "@%s" % mpath] + extra)
        assert code == 0
        rep = json.loads(text)
        assert rep["fixture"] == rep["module"]["algebra_ref"] == "kupisch-56"
        assert len(rep["module"]["action"]) == a.dim == 11
        reports.append(rep)
    assert reports[0] == reports[1]
    capsys.readouterr()
    code, text = run(["module", "@%s" % mpath, "--fixture", "kupisch-455"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error:")


def test_seed_changes_only_its_echo(monkeypatch):
    def without_seed(argv, seed=None):
        # a fresh fixture cache, so that each run starts from cold engines
        monkeypatch.setattr(fx, "_CACHE", {})
        code, text = run(argv if seed is None else ["--seed", str(seed)] + argv)
        echo = seed or 0
        if "json" in argv:
            rep = json.loads(text)
            assert rep.pop("seed") == echo
            return code, rep
        if "scan" in argv:
            rows = list(csv.reader(io.StringIO(text)))
            assert {r[-1] for r in rows[1:]} == {str(echo)}
            return code, [r[:-1] for r in rows]
        assert "seed=%d cutoff" % echo in text
        return code, text.replace("seed=%d " % echo, "")

    for argv in (["endo", "--fixture", "kupisch-455"],
                 ["--format", "json", "endo", "--fixture", "kupisch-455"],
                 ["scan", "2", "3"]):
        assert without_seed(argv, 7) == without_seed(argv)


def test_field_flag_reaches_named_fixtures(tmp_path):
    # e0A/e0J^3 over GF(5) with its first basis vector doubled: the action
    # has entries 2 and 3, so the file only loads over a field of order > 3
    f5 = la.PrimeField(5)
    a = fx.build_fixture("kupisch-455", f5).algebra
    m = mr.bridge_module(a, 0, 3)
    d, d_inv = f5.eye(3), f5.eye(3)
    d[0, 0], d_inv[0, 0] = 2, 3
    m = mr.make_module(a, [f5.matmul(f5.matmul(d_inv, x), d) for x in m.action],
                       m.label)
    assert m.action.max() > 1
    path = tmp_path / "mod.json"
    ser.dump_json(ser.module_to_json(m, algebra_ref="kupisch-455"), str(path))
    assert run(["module", "@%s" % path])[0] == 1      # kupisch-455 over GF(2)
    code, text = run(["--field", "5", "module", "@%s" % path])
    assert code == 0
    assert "domdim     4" in text


def test_field_flag_rejected_for_fixed_field_fixture():
    for field in ("5", "gf4"):
        code, _ = run(["--field", field, "endo", "--fixture", "gf4-local-gendo"])
        assert code == 1


def test_build_fixture_rejects_any_field_for_gf4_local_gendo():
    for field in (la.PrimeField(2), la.PrimeField(3), la.GF4()):
        with pytest.raises(la.FieldError, match="gf4-local-gendo"):
            fx.build_fixture("gf4-local-gendo", field)
    assert fx.build_fixture("gf4-local-gendo").algebra.field == la.GF4()


def test_fixture_names_keep_their_order():
    assert fx.FIXTURE_NAMES == [
        "kupisch-455", "kupisch-56", "sym-777-gendo", "penny-farthing-gendo",
        "gf4-local-gendo", "a2-line", "auslander-22", "two-periodic-demo"]


def test_suite_resolves_every_fixture_before_any_output():
    # gf4-local-gendo, fifth of the fixtures, takes no field: the suite
    # fails before it prints a row for the fixtures before it
    for argv in (["--field", "3", "suite"],
                 ["suite", "--fixture", "a2-line", "--fixture", "no-such"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(argv)
        assert (code, text) == (1, ""), argv
        assert err.getvalue().startswith("error:"), argv
        assert len(err.getvalue().splitlines()) == 1, argv


def test_scan_csv_schema_and_clean_exit():
    code, text = run(["scan", "2", "5"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("schema_version,")
    assert all(line.startswith(cli.SCAN_SCHEMA + ",") for line in lines[1:])
    # every valid series appears exactly once, in deterministic order
    series = [line.split(",")[1] for line in lines[1:]]
    assert series == sorted(set(series), key=series.index)
    assert "4-5-5" not in series and "2-2" in series


def test_scan_rejects_oversized_request(monkeypatch):
    code, _ = run(["scan", "9", "9"])
    assert code == 1
    assert cli._series_count(9, 9, 10 ** 9) == 156218

    # the request is rejected from the series count, before enumeration
    def enumerate_series(n_max, c_max):
        raise AssertionError("series enumerated")

    monkeypatch.setattr(cli, "_cyclic_series", enumerate_series)
    assert run(["scan", "9", "9"])[0] == 1


@pytest.mark.parametrize("n_max,c_max", [(3, 7), (4, 5), (5, 6), (2, 9),
                                         (1, 2), (6, 3)])
def test_scan_series_count_matches_enumeration(n_max, c_max):
    want = sum(1 for _ in cli._cyclic_series(n_max, c_max))
    assert cli._series_count(n_max, c_max, 10 ** 9) == want


def test_suite_exit_zero_on_clean_fixtures():
    code, text = run(["suite", "--fixture", "a2-line",
                      "--fixture", "kupisch-56"])
    assert code == 0
    assert "fail" not in text


def test_endo_unknown_fixture_is_input_error():
    for name in ("no-such", "kupisch-sx", "kupisch-s"):
        assert run(["endo", "--fixture", name])[0] == 1, name


def test_reports_never_show_uncertified_infinite():
    for argv in (["--format", "json", "nakayama", "5,6"],
                 ["--format", "json", "module", "[1,3]",
                  "--fixture", "kupisch-455"],
                 ["--format", "json", "endo", "--fixture", "a2-line"]):
        code, text = run(argv)
        assert code == 0
        def walk(node):
            if isinstance(node, dict):
                if node.get("kind") == "infinite":
                    assert "certificate" in node or node.get("by_convention")
                if node.get("kind") == "atleast":
                    assert node.get("bound_reason")
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
        walk(json.loads(text))


def test_scan_passes_field_cutoff_and_seed(monkeypatch):
    from gorlab import invariants as inv
    calls = []

    def record(a, bound):
        calls.append((a.field, bound))
        return False

    monkeypatch.setattr(inv, "gendo_symmetric_check", record)
    code, text = run(["--field", "5", "--cutoff", "3", "--seed", "7",
                      "scan", "2", "3"])
    assert code in (0, 3)
    assert calls and set(calls) == {(la.PrimeField(5), 3)}
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows and {r["seed"] for r in rows} == {"7"}
    calls.clear()
    run(["scan", "2", "3"])
    assert calls and set(calls) == {(la.PrimeField(2), inv.DEFAULT_BOUND)}


# The input grammar of the CLI, in and out of range: every value a user can
# put in each slot, valid or not.  Fixtures and scan bounds are the cheap
# ones, so that the examples fit the budget below.
FIXTURES = ["kupisch-455", "a2-line", "two-periodic-demo", "gf4-local-gendo",
            "kupisch-s2", "kupisch-s0", "no-such"]
FLAGS = {"--field": ["2", "3", "gf4", "4", "9", "x"],
         "--format": ["text", "json", "csv", "xml"],
         "--cutoff": ["-1", "0", "1", "3", "x"]}


@st.composite
def _module_specs(draw):
    i, k = draw(st.integers(-1, 3)), draw(st.integers(0, 5))
    return draw(st.sampled_from(["[%d,%d]" % (i, k)] * 6 + [
        "[%d]" % i, "[a,b]", "nonsense", "@missing.json", "hom:w", "hom:m11",
        "hom:nope", "extra:gpi_candidate", "extra:w"]))


@st.composite
def _argvs(draw):
    argv = []
    for flag, values in FLAGS.items():
        # each flag is given one time in three
        if draw(st.integers(0, 2)) == 0:
            argv += [flag, draw(st.sampled_from(values))]
    fixture = draw(st.none() | st.sampled_from(FIXTURES))
    by_fixture = [] if fixture is None else ["--fixture", fixture]
    cmd = draw(st.sampled_from(["nakayama", "endo", "module", "scan", "suite"]))
    if cmd == "nakayama":
        argv += ["nakayama", draw(st.sampled_from(
            ["4,5,5", "2,2", "2,1", "3", "1,5", "0", "", "x,2"]))]
        argv += draw(st.sampled_from([[], ["--linear"], ["--cyclic"]]))
    elif cmd == "module":
        argv += ["module", draw(_module_specs())] + by_fixture
    elif cmd == "scan":
        argv += ["scan", str(draw(st.integers(-1, 3))),
                 str(draw(st.integers(-1, 4)))]
    elif cmd == "suite":
        # without --fixture the suite runs every fixture, beyond the budget
        argv += ["suite", "--fixture", fixture or "a2-line"]
    else:
        argv += ["endo"] + by_fixture
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argvs())
def _check_input_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=io.StringIO())
    assert code in (0, 1), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


def test_every_argv_exits_0_or_1_with_an_error_line():
    # every argv of the grammar either runs or fails as an input error
    t0 = time.perf_counter()
    _check_input_contract()
    assert time.perf_counter() - t0 < 60.0
