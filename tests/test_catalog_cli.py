import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prelie_calculus import cli
from prelie_calculus.catalog import load_catalog
from prelie_calculus.exact_core import ONE
from prelie_calculus.metric import standard_metric


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalog:
    def test_expected_instances_present(self):
        ids = {e["id"] for e in load_catalog()}
        for needed in ("b1(alpha=-2)", "b2(beta=1)", "b3", "b4", "b5",
                       "su2", "su2-dual-prelie", "su2-coadjoint-pair",
                       "b-quasitriangular", "cotangent-1", "cotangent-2",
                       "metric-case1(alpha=-2)", "metric-case2(beta=2)",
                       "metric-case4", "metric-case5",
                       "groupdga-z2", "groupdga-s3"):
            assert needed in ids

    def test_b4_table(self):
        entry = next(e for e in load_catalog() if e["id"] == "b4")
        X = entry["build"]()
        # x o x = t, t o x = -x, t o t = -2t
        assert X.xi.get(0, 0, 1) == ONE
        assert X.xi.get(1, 0, 0) == -ONE
        assert X.xi.get(1, 1, 1).re == -2

    def test_every_instance_passes_its_axiom_suite(self):
        """Catalog smoke test: the kind-specific checker suite passes
        for every built-in instance."""
        for entry in load_catalog():
            report = cli._as_bools(cli._check_instance(entry, max_len=2))
            assert cli._all_bools_pass(report), (entry["id"], report)


class TestCLIExitCodes:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--instance", "b4")
        assert code == 0
        assert "overall: PASS" in out

    def test_check_without_instances_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2
        assert "instance" in err

    def test_unknown_instance(self, capsys):
        code, _, err = run(capsys, "check", "--instance", "nope")
        assert code == 2
        assert err == "error: unknown instance 'nope'\n"

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"id": "x", "kind": "metric", "payload": {"calculus": "b9"}}))
        code, _, err = run(capsys, "metric", "--instance-file", str(bad))
        assert code == 3
        assert "b9" in err

    def test_not_json_is_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, _ = run(capsys, "check", "--instance-file", str(bad))
        assert code == 3

    def test_duplicate_id_is_usage_error(self, capsys, tmp_path):
        # a failing file under a catalog id must not be hidden by the
        # passing catalog entry of the same id
        inst = tmp_path / "b4.json"
        inst.write_text(json.dumps({
            "id": "b4", "kind": "prelie",
            "payload": {"dim": 2, "names": ["x", "t"],
                        "xi": [[0, 0, 1, 1, 1, 0, 1],
                               [1, 1, 1, 1, 1, 0, 1]]}}))
        code, _, _ = run(capsys, "check", "--instance-file", str(inst))
        assert code == 1
        code, out, err = run(capsys, "check", "--instance", "b4",
                             "--instance-file", str(inst))
        assert code == 2
        assert out == ""
        assert "duplicate instance id 'b4'" in err
        code, _, _ = run(capsys, "check", "--instance", "b4",
                         "--instance", "b4")
        assert code == 2

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        def broken(entry, max_len):
            raise KeyError("internal")
        monkeypatch.setattr(cli, "_check_instance", broken)
        with pytest.raises(KeyError):
            cli.main(["check", "--instance", "b4"])

    def test_failing_check_exits_one(self, capsys, tmp_path):
        # x o x = t, t o t = t is not left-symmetric over [x,t] = x
        inst = tmp_path / "broken.json"
        inst.write_text(json.dumps({
            "id": "broken", "kind": "prelie",
            "payload": {"dim": 2, "names": ["x", "t"],
                        "xi": [[0, 0, 1, 1, 1, 0, 1],
                               [1, 1, 1, 1, 1, 0, 1]]}}))
        code, out, _ = run(capsys, "check", "--instance-file", str(inst))
        assert code == 1
        assert "overall: FAIL" in out


def _prelie_file(**payload):
    """A dim-2 pre-Lie instance file (x o x = t) with fields replaced."""
    base = {"dim": 2, "names": ["x", "t"], "xi": [[0, 0, 1, 1, 1, 0, 1]]}
    base.update(payload)
    return {"id": "malformed", "kind": "prelie", "payload": base}


# one case per malformed input; each one raised a traceback or was
# accepted before the parse boundary validated numbers
MALFORMED = [
    pytest.param(_prelie_file(xi=[[0, 0, 1, 1, 0, 0, 1]]), (), 3,
                 id="zero-denominator-in-row"),
    pytest.param(None, ("metric", "--case", "1", "--alpha", "[1,0]"), 2,
                 id="zero-denominator-in-flag"),
    pytest.param(_prelie_file(dim="abc"), (), 3, id="dim-not-a-number"),
    pytest.param(_prelie_file(dim=-1, xi=[]), (), 3, id="negative-dim"),
    pytest.param(_prelie_file(names=["x"]), (), 3, id="names-wrong-length"),
    pytest.param(_prelie_file(xi=[[0, 0, 1, True, 1, 0, 1]]), (), 3,
                 id="json-true-as-number"),
    pytest.param(None, ("calculus", "--instance", "b4", "--max-len", "-1"),
                 2, id="max-len-below-1"),
    pytest.param(None, ("calculus", "--instance", "b4", "--max-len", "40"),
                 2, id="max-len-over-work-limit"),
    pytest.param(dict(_prelie_file(), id=["x"]), (), 3, id="id-not-a-string"),
    pytest.param(_prelie_file(xi=[[0, 0, 1, 1, 1, 0, 1],
                                  [0, 0, 1, 5, 1, 0, 1]]), (), 3,
                 id="repeated-row"),
]


@pytest.mark.parametrize("document, argv, expected", MALFORMED)
def test_malformed_numbers_exit_cleanly(capsys, tmp_path, document, argv,
                                        expected):
    if document is not None:
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(document))
        argv = ("check", "--instance-file", str(path))
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flag values
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err and "error" in err


# the flags each subcommand reads, besides -h
SUBCOMMAND_FLAGS = {
    "check": {"--instance", "--instance-file", "--max-len", "--json"},
    "construct": {"--instance", "--instance-file", "--json"},
    "calculus": {"--instance", "--instance-file", "--max-len", "--lambda",
                 "--json"},
    "groupdga": {"--instance", "--instance-file", "--max-len", "--json"},
    "metric": {"--instance", "--instance-file", "--case", "--alpha",
               "--beta", "--c1", "--c2", "--c3", "--json"},
    "curvature": {"--instance", "--instance-file", "--case", "--alpha",
                  "--beta", "--c1", "--c2", "--c3", "--json"},
    "su2": {"--json"},
    "catalog": {"--json"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for action in p._actions
                    for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, p in sub.choices.items()}
    assert flags == SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 36


@pytest.mark.parametrize("argv", [
    ("su2", "--max-len", "3"),
    ("catalog", "--instance", "b4"),
    ("check", "--lambda", "1"),
    ("construct", "--max-len", "2"),
    ("metric", "--max-len", "2"),
])
def test_flag_a_subcommand_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _write(tmp_path, document):
    path = tmp_path / f"{document['id']}.json"
    path.write_text(json.dumps(document))
    return str(path)


# x o x = t, t o t = t: not left-symmetric
NOT_LEFT_SYMMETRIC = [[0, 0, 1, 1, 1, 0, 1], [1, 1, 1, 1, 1, 0, 1]]


class TestReentrantMain:
    """main parses with one parser per process; a run of calls in one
    process, errors and repeated flags included, must print and exit
    as fresh processes do."""

    @staticmethod
    def calls(tmp_path):
        x_line = _write(tmp_path, {"id": "x-line", "kind": "prelie",
                                   "payload": {"dim": 1,
                                               "xi": [[0, 0, 0, 1]]}})
        x_twice = _write(tmp_path, {"id": "x-twice", "kind": "prelie",
                                    "payload": {"dim": 1,
                                                "xi": [[0, 0, 0, 2]]}})
        bad = _write(tmp_path, _prelie_file(xi=[[0, 0, 1, 1, 0, 0, 1]]))
        failing = _write(tmp_path, {"id": "not-ls", "kind": "prelie",
                                    "payload": {"dim": 2,
                                                "xi": NOT_LEFT_SYMMETRIC}})
        return [
            ("check", "--instance", "b4", "--instance", "b3", "--json"),
            ("check", "--instance", "b4", "--json"),
            ("construct", "--instance", "b-quasitriangular", "--json"),
            ("calculus", "--instance", "nosuch"),               # exit 2
            ("calculus", "--instance", "su2-dual-prelie", "--max-len", "4",
             "--lambda", "[-3, 7]", "--json"),
            ("check", "--instance-file", bad),                  # exit 3
            ("calculus", "--instance", "b4"),
            ("su2", "--max-len", "3"),                  # argparse exit 2
            ("check", "--instance-file", x_line, "--instance-file", x_twice,
             "--instance", "b5", "--instance", "b2(beta=1)"),
            ("check", "--instance-file", x_twice, "--instance", "b5"),
            ("groupdga", "--instance", "groupdga-z2", "--json"),
            ("metric", "--case", "1", "--alpha", "[-2, 3]", "--json"),
            ("metric", "--instance", "metric-case4"),
            ("check", "--instance-file", failing, "--json"),    # exit 1
            (),                                                 # exit 2
            ("curvature", "--case", "5", "--c2", "3"),
            ("su2",),
            ("catalog", "--json"),
            ("calculus", "--instance", "x-line"),               # exit 2
            ("calculus", "--instance-file", x_line, "--json"),
        ]

    def test_calls_match_fresh_processes(self, capsys, monkeypatch,
                                         tmp_path):
        # argparse wraps its usage lines to COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("NO_COLOR", raising=False)
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        cli._parser.cache_clear()
        codes = set()
        for argv in self.calls(tmp_path):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "prelie_calculus.cli", *argv],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=120)
            assert (code, out.out, out.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.add(code)
        assert codes == {0, 1, 2, 3}
        assert cli._parser.cache_info().misses == 1


class TestCommandPath:
    def test_construct_reads_prelie_files(self, capsys, tmp_path):
        path = _write(tmp_path, {"id": "mine", "kind": "prelie", "payload": {
            "dim": 2, "xi": [[0, 0, 1, 1, 1, 0, 1], [1, 0, 0, -1, 1, 0, 1],
                             [1, 1, 1, -2, 1, 0, 1]]}})
        code, out, _ = run(capsys, "construct", "--instance-file", path,
                           "--json")
        assert code == 0
        assert json.loads(out)["mine"] == json.loads(
            run(capsys, "construct", "--instance", "b4", "--json")[1])["b4"]

    @pytest.mark.parametrize("command, dim", [("construct", 2),
                                              ("calculus", 3)])
    def test_a_product_that_is_not_left_symmetric_is_an_error_entry(
            self, capsys, tmp_path, command, dim):
        path = _write(tmp_path, {"id": "bad", "kind": "prelie", "payload": {
            "dim": dim, "xi": NOT_LEFT_SYMMETRIC}})
        code, out, err = run(capsys, command, "--instance-file", path,
                             "--json")
        assert code == 1
        assert json.loads(out) == {
            "bad": {"error": "product is not left-symmetric"}}
        assert err == ""

    @pytest.mark.parametrize("document", [
        {"id": "m", "kind": "metric", "payload": {"calculus": "b4"}},
        {"id": "g", "kind": "group_dga", "payload": {
            "cayley": [[0, 1], [1, 0]], "action": [[0, 1], [1, 0]],
            "theta": [[1, 1], [0, 1]]}},
    ])
    def test_construct_rejects_other_kinds(self, capsys, tmp_path, document):
        code, out, err = run(capsys, "construct", "--instance-file",
                             _write(tmp_path, document))
        assert code == 2
        assert out == ""
        assert "construct does not apply to kind" in err

    @pytest.mark.parametrize("command", ["check", "calculus"])
    def test_su2_id_of_another_dim_is_not_read_over_su2(self, capsys,
                                                        tmp_path, command):
        path = _write(tmp_path, {"id": "su2x", "kind": "prelie",
                                 "payload": {"dim": 1, "xi": []}})
        code, _, err = run(capsys, command, "--instance-file", path,
                           "--max-len", "1")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", ["check", "calculus"])
    def test_a_file_is_read_the_same_under_any_id(self, capsys, tmp_path,
                                                  command):
        # x o x = x in dim 3: left-symmetric, not compatible with su2*
        reports = []
        for iid in ("mine", "su2-mine"):
            path = _write(tmp_path, {"id": iid, "kind": "prelie", "payload": {
                "dim": 3, "xi": [[0, 0, 0, 1, 1, 0, 1]]}})
            code, out, err = run(capsys, command, "--instance-file", path,
                                 "--json")
            reports.append((code, json.loads(out)[iid], err))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0

    def test_too_much_work_is_refused_before_any_check(self, capsys,
                                                       monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a check ran before the work was bounded")
        monkeypatch.setattr(cli, "check_calculus", no_work)
        code, out, err = run(capsys, "calculus", "--instance", "b4",
                             "--instance", "su2-dual-prelie",
                             "--max-len", "13")
        assert (code, out) == (2, "")
        assert err == ("error: su2-dual-prelie: calculus at --max-len 13 "
                       "would differentiate 560 PBW words, over the limit of "
                       f"{cli.MAX_PBW_WORDS}\n")

    def test_long_words_are_refused_in_dim_1(self, capsys, tmp_path,
                                             monkeypatch):
        """Dim 1 has max-len + 1 words, so the word count alone would
        admit x o x = x at --max-len 499, a 40 s run."""
        def no_work(*args, **kwargs):
            raise AssertionError("a check ran before the work was bounded")
        monkeypatch.setattr(cli, "check_calculus", no_work)
        path = _write(tmp_path, {"id": "line", "kind": "prelie", "payload": {
            "dim": 1, "xi": [[0, 0, 0, 1, 1, 0, 1]]}})
        code, out, err = run(capsys, "calculus", "--instance-file", path,
                             "--max-len", str(cli.MAX_WORD_LEN + 1))
        assert (code, out) == (2, "")
        assert err == (f"error: calculus at --max-len {cli.MAX_WORD_LEN + 1} "
                       "would differentiate words longer than the limit of "
                       f"{cli.MAX_WORD_LEN}\n")

    @pytest.mark.parametrize("command", ["groupdga", "check"])
    def test_too_large_group_dga_is_refused_before_any_check(
            self, capsys, tmp_path, monkeypatch, command):
        """Z_2 swapping 16 points, with theta moved off every point:
        --max-len 5 is capped at 3, where d^2 would write 1102624
        exponents on 1122 monomials."""
        def no_work(*args, **kwargs):
            raise AssertionError("a check ran before the work was bounded")
        monkeypatch.setattr(cli, "check_group_dga", no_work)
        path = _write(tmp_path, {"id": "swap16", "kind": "group_dga",
                                 "payload": {
            "cayley": [[0, 1], [1, 0]],
            "action": [list(range(16)), [i ^ 1 for i in range(16)]],
            "theta": list(range(1, 17))}})
        others = ["--instance", "b4"] if command == "check" else []
        code, out, err = run(capsys, command, "--instance-file", path,
                             *others, "--max-len", "5")
        assert (code, out) == (2, "")
        assert err == ("error: swap16: d^2 at max-len 3 would write "
                       "1102624 alpha exponents on 1122 monomials, over "
                       f"the limit of {cli.MAX_D_SQUARED_EXPONENTS}\n")

    @pytest.mark.parametrize("points, theta", [
        (14, list(range(1, 15))),   # 617624 exponents at max-len 3
        (0, []),                    # no points: the group elements alone
    ], ids=["swap14", "no-points"])
    def test_group_dga_under_the_bound_is_admitted(self, capsys, tmp_path,
                                                   points, theta):
        path = _write(tmp_path, {"id": "g", "kind": "group_dga",
                                 "payload": {
            "cayley": [[0, 1], [1, 0]],
            "action": [list(range(points)),
                       [i ^ 1 for i in range(points)]],
            "theta": theta}})
        code, out, err = run(capsys, "groupdga", "--instance-file", path,
                             "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["g"]["passed"] is True

    def test_longest_dim1_run_is_admitted(self, capsys, tmp_path):
        path = _write(tmp_path, {"id": "line", "kind": "prelie", "payload": {
            "dim": 1, "xi": [[0, 0, 0, 1, 1, 0, 1]]}})
        code, out, err = run(capsys, "calculus", "--instance-file", path,
                             "--max-len", str(cli.MAX_WORD_LEN), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["line"] == {
            "connected": True, "first_order": True, "kernel_dimension": 1}

    def test_long_dim2_run_is_admitted(self, capsys):
        """The bound counts PBW words, not the Leibniz pairs that a
        passing run no longer sweeps: 78 words at --max-len 11."""
        code, out, err = run(capsys, "calculus", "--instance", "b4",
                             "--max-len", "11", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["b4"]["connected"] is True

    def test_bad_lambda_is_rejected_before_any_work(self, capsys,
                                                    monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the calculus ran before --lambda was read")
        monkeypatch.setattr(cli, "check_calculus", no_work)
        code, out, err = run(capsys, "calculus", "--instance", "b4",
                             "--lambda", "zz")
        assert code == 2
        assert out == ""
        assert err == "error: bad --lambda value 'zz'\n"

    @pytest.mark.parametrize("argv, message", [
        (("--case", "4", "--alpha", "3"),
         "error: bad metric parameter: b4 takes no parameter 'alpha'\n"),
        (("--case", "2", "--beta", "1", "--alpha", "3"),
         "error: bad metric parameter: b2 takes no parameter 'alpha'\n"),
        (("--case", "1", "--alpha", "1", "--beta", "2"),
         "error: bad metric parameter: b1 takes no parameter 'beta'\n"),
    ])
    def test_parameter_the_family_does_not_take_is_refused(self, capsys,
                                                           argv, message):
        code, out, err = run(capsys, "metric", *argv)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("payload, message", [
        ({"calculus": "b4", "alpha": 3}, "b4 takes no parameter 'alpha'"),
        ({"calculus": "b1", "alpha": 1, "gamma": 2},
         "b1 takes no parameter 'gamma'"),
        ({"calculus": "b4", "c": [1, 2]}, "c must be an object, got [1, 2]"),
        ({"calculus": "b4", "c": {"c1": 1, "c4": 7}},
         "unknown metric coefficient 'c4'"),
    ])
    def test_metric_file_input_that_would_be_ignored_is_refused(
            self, capsys, tmp_path, payload, message):
        path = _write(tmp_path, {"id": "m", "kind": "metric",
                                 "payload": payload})
        code, out, err = run(capsys, "metric", "--instance-file", path)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("cayley, entry", [
        ([[0, 1], [1, -2]], "cayley entry -2 at (1, 1) is not in 0..1"),
        ([[0, 1], [1, 2]], "cayley entry 2 at (1, 1) is not in 0..1"),
    ])
    def test_group_table_entry_out_of_range_is_refused(
            self, capsys, tmp_path, cayley, entry):
        path = _write(tmp_path, {"id": "g", "kind": "group_dga", "payload": {
            "cayley": cayley, "action": [[0], [0]], "theta": [1]}})
        code, out, err = run(capsys, "groupdga", "--instance-file", path)
        assert (code, out, err) == (3, "", f"error: {entry}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--case", "1", "--alpha", "1", "--instance", "metric-case4"),
         "error: --case cannot be combined with --instance or "
         "--instance-file\n"),
        (("--alpha", "1", "--instance", "metric-case4"),
         "error: --alpha needs --case\n"),
        ((), "error: metric requires --case, --instance or "
             "--instance-file\n"),
    ])
    def test_metric_flags_and_instances_do_not_mix(self, capsys, argv,
                                                   message):
        code, out, err = run(capsys, "metric", *argv)
        assert (code, out, err) == (2, "", message)


# -- fuzzing the parse boundary ------------------------------------------

_NUMBERS = st.one_of(
    st.integers(-2, 2), st.booleans(), st.none(), st.sampled_from(["1", ""]),
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    st.lists(st.integers(-1, 1), min_size=4, max_size=4))
_RATIONALS = st.integers(-2, 2) | st.tuples(st.integers(-2, 2),
                                            st.integers(1, 2)).map(list)


@st.composite
def _prelie_documents(draw):
    """(payload, defective): a valid dim 1-3 product, or one with a
    single defect."""
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    xi = draw(st.dictionaries(
        st.tuples(index, index, index),
        st.tuples(st.integers(-2, 2), st.sampled_from([1, 2]),
                  st.sampled_from([0, 0, 1]), st.just(1)), max_size=5))
    rows = [[*key, *c] for key, c in xi.items()]
    free = next((key for key in product(range(dim), repeat=3)
                 if key not in xi), (0, 0, 0))
    # "dim" comes first because Hypothesis draws the first choice most
    # often: dim 0 without rows is the one defect that only the dim check
    # rejects, since any row fails the index check at dim < 1
    defect = draw(st.sampled_from(["dim"] + [None] * 6 + [
        "index", "zero", "bool", "short", "repeat"]))
    if defect == "dim":
        dim = draw(st.sampled_from([0, -1, True, "2", None]))
        if draw(st.booleans()):
            rows = []
    elif defect == "index":
        rows.append([*free[:2], dim, 1, 1, 0, 1])
    elif defect == "zero":
        rows.append([*free, 1, 0, 0, 1])
    elif defect == "bool":
        rows.append([*free, draw(st.booleans()), 1, 0, 1])
    elif defect == "short":
        rows.append(draw(st.lists(_NUMBERS, max_size=3)))
    elif defect == "repeat":
        rows += [[*free, 1, 1, 0, 1], [*free, 2, 1, 0, 1]]
    return {"dim": dim, "xi": rows}, defect is not None


def _metric_documents():
    number = _RATIONALS | _RATIONALS | _NUMBERS
    params = st.fixed_dictionaries({}, optional={
        "alpha": number, "beta": number,
        "c": st.fixed_dictionaries({}, optional={
            key: number for key in ("c1", "c2", "c3")})})
    return st.tuples(st.sampled_from(["b1", "b2", "b4", "b5"] * 2
                                     + ["b3", "b9", 4]), params).map(
        lambda cp: {"calculus": cp[0], **cp[1]})


_GROUP_TABLES = st.one_of(st.just([[0, 1], [1, 0]]),
                          st.lists(st.lists(_NUMBERS, max_size=2),
                                   max_size=2))
_GROUP_DGA_DOCUMENTS = st.fixed_dictionaries({
    "cayley": _GROUP_TABLES, "action": _GROUP_TABLES,
    "theta": st.lists(_NUMBERS, min_size=2, max_size=2)})

# (kind, payload, defective); defective is None when not known
_DOCUMENTS = st.one_of(
    st.none(),
    _prelie_documents().map(lambda doc: ("prelie", *doc)),
    _prelie_documents().map(lambda doc: ("prelie", *doc)),
    st.tuples(st.just("metric"), _metric_documents(), st.none()),
    st.tuples(st.just("group_dga"), _GROUP_DGA_DOCUMENTS, st.none()),
    st.tuples(st.sampled_from(["lie", 3]), st.just({}), st.just(True)))

# valid values first, and more of them
_FLAG_VALUES = {
    "--instance": ["b4", "su2", "b4", "metric-case4", "groupdga-z2", "nope"],
    "--max-len": ["1", "2", "1", "2", "0", "-1", "x"],
    "--lambda": ["1", "[1,2]", "-1", "[1,0]", "zz", "true"],
    "--case": ["1", "2", "4", "5", "3", "7", "x"],
    "--alpha": ["-2", "[1,3]", "[1,0]", "true", "zz"],
    "--beta": ["2", "0", "[1,0]", "1.5"],
    "--c1": ["1", "0", "[1,2]", "[1,2,1,1]"],
    "--c2": ["0", "1", "[2,0]"],
    "--c3": ["1", "0", "true"],
    "--json": [],
}


def _flags(names):
    """(flag, value) draws; --json takes no value."""
    return st.sampled_from(sorted(names)).flatmap(
        lambda f: st.sampled_from(_FLAG_VALUES[f]).map(lambda v: (f, v))
        if _FLAG_VALUES[f] else st.just((f,)))


def _gaussian(re_n, re_d, im_n, im_d):
    return Fraction(re_n, re_d), Fraction(im_n, im_d)


def _left_symmetric(dim, rows):
    """Dense reference: (x o y) o z - x o (y o z) is symmetric in x, y."""
    xi = {tuple(r[:3]): _gaussian(*r[3:]) for r in rows}
    zero = (Fraction(0), Fraction(0))

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def assoc(x, y, z, o):
        re = im = Fraction(0)
        for m in range(dim):
            p = mul(xi.get((x, y, m), zero), xi.get((m, z, o), zero))
            q = mul(xi.get((y, z, m), zero), xi.get((x, m, o), zero))
            re, im = re + p[0] - q[0], im + p[1] - q[1]
        return re, im

    return all(assoc(x, y, z, o) == assoc(y, x, z, o)
               for x, y, z, o in product(range(dim), repeat=4))


def _known_to_fail(command, iid, kind, payload):
    """True when the file certainly fails the command's verdict."""
    if kind == "prelie" and command in ("check", "construct", "calculus"):
        dim = payload["dim"]
        if command == "calculus" and dim == 2:
            return False   # built over [x,t] = x, not x o y - y o x
        return not _left_symmetric(dim, payload["xi"])
    if kind == "metric" and command in ("check", "metric", "curvature"):
        c = payload.get("c", {})
        return all(c.get(key) == 0 for key in ("c1", "c2", "c3"))
    return False


# the pre-Lie commands come up more often: they carry the oracle
_FUZZ_COMMANDS = ["check", "construct", "calculus"] * 2 + [
    "groupdga", "metric", "curvature", "su2", "catalog"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(_FUZZ_COMMANDS),
       iid=st.sampled_from(["fuzz", "su2-fuzz"]), document=_DOCUMENTS)
def test_fuzz_parse_boundary(data, command, iid, document):
    """Any instance file and any flags, also ones the subcommand does
    not take, end in exit 0-3 without another exception; a defective
    file is always rejected, and a file known to fail never passes."""
    own = SUBCOMMAND_FLAGS[command] - {"--instance-file"}
    flags = data.draw(st.lists(_flags(own) | _flags(own) | _flags(own)
                               | _flags(_FLAG_VALUES), max_size=3))
    argv = [command, *(part for flag in flags for part in flag)]
    if "--max-len" in own and "--max-len" not in argv:
        argv += ["--max-len", "2"]
    with tempfile.TemporaryDirectory() as tmp:
        if document is not None:
            kind, payload, defective = document
            path = Path(tmp) / "fuzz.json"
            path.write_text(json.dumps({"id": iid, "kind": kind,
                                        "payload": payload}))
            argv += ["--instance-file", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejects the flags
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    if document is not None and defective:
        assert code in (2, 3), (argv, out.getvalue())
    if document is not None and code == 0:
        assert not _known_to_fail(command, iid, kind, payload), \
            (argv, out.getvalue())


class TestCLIReports:
    def test_check_report_fields(self, capsys):
        code, out, _ = run(capsys, "check", "--instance", "b4", "--json")
        assert code == 0
        data = json.loads(out)
        rep = data["b4"]
        assert rep["left_symmetry"] and rep["compatibility"]
        assert rep["flat_right_action"] and rep["bicovariance"]

    def test_calculus_command(self, capsys):
        code, out, _ = run(capsys, "calculus", "--instance", "b2(beta=1)",
                           "--max-len", "3", "--lambda", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["b2(beta=1)"]["first_order"]
        assert data["b2(beta=1)"]["kernel_dimension"] == 1

    def test_su2_command(self, capsys):
        code, out, _ = run(capsys, "su2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["semiclassical"]["passed"]
        assert data["bicrossproduct_omega"]["passed"]

    def test_curvature_case5(self, capsys):
        code, out, _ = run(capsys, "curvature", "--case", "5",
                           "--c1", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["case5"]["matches_closed_form"]

    def test_curvature_all_cases_match(self, capsys):
        for argv in (["--case", "1", "--alpha", "-2"],
                     ["--case", "2", "--beta", "2"],
                     ["--case", "4"],
                     ["--case", "5", "--c3", "[1,2]"]):
            code, out, _ = run(capsys, "curvature", *argv, "--json")
            assert code == 0, out
            data = json.loads(out)
            (rep,) = data.values()
            assert rep["matches_closed_form"]

    @pytest.mark.parametrize("argv", [
        ("--case", "4", "--c2", "3"),
        ("--case", "5", "--c1", "2", "--c2", "7"),
        ("--case", "2", "--beta", "2", "--c2", "[1,3]"),
        ("--case", "5", "--c1", "5", "--c2", "3", "--c3", "7"),
        ("--case", "2", "--beta", "2", "--c1", "5", "--c2", "3", "--c3",
         "7"),
        ("--case", "4", "--c1", "5", "--c2", "3", "--c3", "7"),
    ])
    def test_curvature_cross_term_matches_closed_form(self, capsys, argv):
        """With a cross term c2 the closed forms of cases 2, 4 and 5 hold
        with c1 replaced by (c1 c3 - c2^2) / c3 and, in case 4, t by
        t - c2/c3."""
        code, out, _ = run(capsys, "curvature", *argv, "--json")
        assert code == 0, out
        (rep,) = json.loads(out).values()
        assert rep["matches_closed_form"] is True

    @pytest.mark.parametrize("case, param", [(2, 2), (4, None), (5, None)])
    def test_curvature_wrong_reduced_c1_fails(self, capsys, monkeypatch,
                                              case, param):
        """A closed form that ignores c2 (c1' = c1, no shift of t) does
        not match, and the run exits 1."""
        def ignore_cross_term(M):
            c = {"c1": 5, "c2": 0, "c3": 7}
            return closed_form(standard_metric(case, alpha=param,
                                               beta=param, **c))

        closed_form = cli._closed_form_curvature
        monkeypatch.setattr(cli, "_closed_form_curvature", ignore_cross_term)
        argv = ["--case", str(case), "--c1", "5", "--c2", "3", "--c3", "7"]
        if param is not None:
            argv += ["--beta", str(param)]
        code, out, _ = run(capsys, "curvature", *argv, "--json")
        (rep,) = json.loads(out).values()
        assert rep["matches_closed_form"] is False
        assert code == 1

    def test_metric_instance_file(self, capsys, tmp_path):
        inst = tmp_path / "m.json"
        inst.write_text(json.dumps({
            "id": "my-metric", "kind": "metric",
            "payload": {"calculus": "b2", "beta": [2, 1],
                        "c": {"c1": 1, "c3": [3, 2]}}}))
        code, out, _ = run(capsys, "metric", "--instance-file", str(inst),
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert all(data["my-metric"].values())

    def test_groupdga_instance_file(self, capsys, tmp_path):
        inst = tmp_path / "g.json"
        inst.write_text(json.dumps({
            "id": "my-z2", "kind": "group_dga",
            "payload": {"cayley": [[0, 1], [1, 0]],
                        "action": [[0, 1], [1, 0]],
                        "theta": [[1, 1], [0, 1]]}}))
        code, out, _ = run(capsys, "groupdga", "--instance-file",
                           str(inst), "--max-len", "2", "--json")
        assert code == 0
        assert json.loads(out)["my-z2"]["passed"]

    def test_construct_emits_sparse_triples(self, capsys):
        code, out, _ = run(capsys, "construct", "--instance", "b4",
                           "--json")
        assert code == 0
        data = json.loads(out)
        triples = data["b4"]["product"]
        assert [0, 0, 1, 1, 1, 0, 1] in triples
        assert all(len(row) == 7 for row in triples)

    def test_output_deterministic(self, capsys):
        first = run(capsys, "check", "--instance", "b3", "--instance",
                    "metric-case4", "--json")
        second = run(capsys, "check", "--instance", "b3", "--instance",
                     "metric-case4", "--json")
        assert first == second

    def test_catalog_lists_sorted(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        ids = list(json.loads(out))
        assert ids == sorted(ids)


# ---------------------------------------------------------------------------
# every boolean field the CLI prints can fail, or is known not to


def _dim2_prelie(rows):
    return {"id": "dim2", "kind": "prelie", "payload": {"dim": 2, "xi": rows}}


def _metric(**payload):
    return {"id": "uv", "kind": "metric", "payload": payload}


NOT_REAL = {"calculus": "b1", "alpha": 3, "c": {"c1": [1, 1, 1, 1], "c3": 2}}
DEGENERATE = {"calculus": "b1", "alpha": 1, "c": {"c1": 1, "c2": 1, "c3": 1}}

# (command, field) -> the arguments of a run that prints the field false;
# a dict stands for an instance file holding it
CAN_FAIL = {
    # x o t = x
    ("check", "left_symmetry"):
        ["check", _dim2_prelie([[0, 1, 0, 1, 1, 0, 1]])],
    # the zero product over [x,t] = x
    ("check", "compatibility"): ["check", _dim2_prelie([])],
    # x o x = x
    ("check", "flat_right_action"):
        ["check", _dim2_prelie([[0, 0, 0, 1, 1, 0, 1]])],
    ("check", "real"): ["check", _metric(**NOT_REAL)],
    ("check", "nondegenerate"): ["check", _metric(**DEGENERATE)],
    ("calculus", "first_order"): ["calculus", _dim2_prelie([])],
    ("metric", "real"): ["metric", "--case", "1", "--alpha", "3",
                         "--c1", "[1,1,1,1]", "--c3", "2"],
    ("metric", "nondegenerate"): ["metric", "--case", "1", "--alpha", "1",
                                  "--c1", "1", "--c2", "1", "--c3", "1"],
}

CATALOG_ONLY = "no instance file carries this kind; every catalog entry passes"
CENTRAL = "a metric input is the u,v presentation, so central is the " \
    "four-commutator certificate on u and v (README theorem: centrality " \
    "is a theorem of the u,v presentation)"
WEDGE = "the u,v presentation has a symmetric c-matrix, so dx^dt cancels"
GROUP_DGA = "d^2 = 0 follows from the rewrite rules on every valid group " \
    "DGA (README theorem: group-DGA identities are theorems of the " \
    "rewrite rules)"
CANNOT_FAIL = {
    ("check", "bicovariance"): "a dim-2 file is checked over an abelian "
        "carrier: delta_{g*} = 0, so both sides of (Xi-bi) vanish "
        "(README theorem)",
    **{("check", field): CATALOG_ONLY for field in (
        "antisymmetry", "jacobi", "cocycle", "matched_pair",
        "symmetric_part_invariant", "cybe", "induced_left_symmetry",
        "cotangent_bicovariance")},
    ("check", "central"): CENTRAL,
    ("check", "wedge_symmetric"): WEDGE,
    ("check", "passed"): GROUP_DGA,
    ("calculus", "connected"): "ker d is the constants for every product "
        "and every lambda (README theorem)",
    ("metric", "central"): CENTRAL,
    ("metric", "wedge_symmetric"): WEDGE,
    ("curvature", "matches_closed_form"): "the classified closed forms "
        "hold for every u,v metric of cases 1, 2, 4 and 5",
    ("groupdga", "passed"): GROUP_DGA,
    ("su2", "passed"): "su2 reads no input",
}


def _argv(tmp_path, items):
    argv = []
    for item in items:
        argv += ["--instance-file", _write(tmp_path, item)] \
            if isinstance(item, dict) else [item]
    return argv


@pytest.mark.parametrize("command, field", sorted(CAN_FAIL))
def test_field_can_fail(capsys, tmp_path, command, field):
    argv = _argv(tmp_path, CAN_FAIL[command, field])
    assert argv[0] == command
    code, out, _ = run(capsys, *argv, "--json")
    (rep,) = json.loads(out).values()
    assert rep[field] is False
    assert code == 1


# every dim-2 catalog product, then each dim-2 file of CAN_FAIL, named
# after the field it fails
DIM2_PRELIE = [
    pytest.param(["--instance", e["id"]], id=e["id"]) for e in load_catalog()
    if e["kind"] == "prelie" and e["build"]().dim == 2] + [
    pytest.param(items[1:], id=f"{command}-{field}")
    for (command, field), items in sorted(CAN_FAIL.items())
    if isinstance(items[1], dict) and items[1]["kind"] == "prelie"]


@pytest.mark.parametrize("source", DIM2_PRELIE)
def test_first_order_is_compatibility_and_flatness(capsys, tmp_path, source):
    """calculus decides first_order from the two identities that check
    prints (README theorem: (R) and (D) are compatibility and
    flatness)."""
    argv = _argv(tmp_path, source)
    _, out, _ = run(capsys, "check", *argv, "--json")
    (checked,) = json.loads(out).values()
    code, out, _ = run(capsys, "calculus", "--max-len", "2", *argv,
                       "--json")
    (calculus,) = json.loads(out).values()
    assert calculus["first_order"] == (checked["compatibility"]
                                       and checked["flat_right_action"])
    assert code == (0 if calculus["first_order"] else 1)


def test_every_printed_field_is_classified(capsys, tmp_path):
    """The boolean fields printed over the whole catalog and the failing
    inputs above are exactly the classified ones."""
    catalog = load_catalog()

    def instances(*kinds):
        return [arg for e in catalog if not kinds or e["kind"] in kinds
                for arg in ("--instance", e["id"])]

    runs = [["check", *instances()],
            ["construct", *instances("prelie", "cotangent_input",
                                     "rmatrix", "bialgebra")],
            ["calculus", "--max-len", "2", *instances("prelie")],
            ["groupdga", *instances("group_dga")],
            ["metric", *instances("metric")],
            ["curvature", *instances("metric")],
            ["su2"], ["catalog"]]
    runs += [_argv(tmp_path, items) for items in CAN_FAIL.values()]
    printed = set()
    for argv in runs:
        _, out, _ = run(capsys, *argv, "--json")
        printed |= {(argv[0], key) for rep in json.loads(out).values()
                    for key, val in rep.items() if isinstance(val, bool)}
    assert not set(CAN_FAIL) & set(CANNOT_FAIL)
    assert printed == set(CAN_FAIL) | set(CANNOT_FAIL)
