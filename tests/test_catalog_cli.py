import json

import pytest

from prelie_calculus import cli
from prelie_calculus.catalog import load_catalog
from prelie_calculus.exact_core import ONE


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
            report = cli._check_instance(entry, max_len=2)
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
    pytest.param(dict(_prelie_file(), id=["x"]), (), 3, id="id-not-a-string"),
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
