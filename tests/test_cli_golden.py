"""Golden CLI outputs: every command in tests/data/cli_golden.json is
replayed through cli.main in this process, and its exit code, stdout and
stderr must match the recorded ones byte for byte.

The fixture holds the instance files the schema-error commands read
and, for each command, its argv, exit code, stdout and stderr, with the
directory of those files written as TMP.  To record it again (only for
an intended output change, to be listed in CHANGES.md), run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

from prelie_calculus import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
TMP = "<TMP>"

# argparse wraps its usage lines to the terminal width
WIDTH = "80"

PRELIE_IDS = ["b1(alpha=-2)", "b1(alpha=0)", "b1(alpha=1)", "b1(alpha=3)",
              "b2(beta=1)", "b2(beta=2)", "b3", "b4", "b5",
              "su2-dual-prelie"]

FILES = {
    "not_json.json": "{nope",
    "missing_field.json": json.dumps({"id": "x", "kind": "prelie"}),
    "bad_triple.json": json.dumps(
        {"id": "x", "kind": "prelie",
         "payload": {"dim": 2, "xi": [[0, 0, 1]]}}),
    "zero_denominator.json": json.dumps(
        {"id": "x", "kind": "prelie",
         "payload": {"dim": 2, "xi": [[0, 0, 1, 1, 0, 0, 1]]}}),
}


def _argvs():
    """The recorded commands: text and --json runs of each report, then
    the usage and schema errors."""
    from prelie_calculus.catalog import load_catalog
    catalog = load_catalog()
    reports = [["catalog"]]
    reports += [["check", "--instance", e["id"]] for e in catalog]
    reports += [["construct", "--instance", e["id"]] for e in catalog
                if e["kind"] in ("prelie", "cotangent_input", "rmatrix",
                                 "bialgebra")]
    reports.append(["construct", "--instance", "metric-case4"])
    reports += [["calculus", "--instance", iid, "--max-len", "3",
                 "--lambda", lam]
                for iid in PRELIE_IDS for lam in ("1", "0", "[3,7]")]
    reports.append(["calculus", "--instance", "su2-dual-prelie",
                    "--max-len", "4"])
    for command in ("metric", "curvature"):
        reports += [[command, "--case", "1", "--alpha", "-2"],
                    [command, "--case", "2", "--beta", "2"],
                    [command, "--case", "4"], [command, "--case", "5"]]
    reports += [["metric", "--case", "1", "--alpha", "3",
                 "--c1", "[1,1,1,1]", "--c3", "2"],
                ["metric", "--case", "1", "--alpha", "1",
                 "--c1", "1", "--c2", "1", "--c3", "1"]]
    reports += [["su2"], ["groupdga", "--instance", "groupdga-z2"],
                ["groupdga", "--instance", "groupdga-s3"]]
    errors = [["check", "--instance", "nope"],
              ["calculus", "--instance", "b4", "--lambda", "x"],
              ["calculus", "--instance", "b4", "--max-len", "0"],
              ["calculus", "--instance", "su2-dual-prelie",
               "--max-len", "13"],
              ["metric", "--case", "3"],
              ["metric", "--case", "1"]]
    errors += [["check", "--instance-file", f"{TMP}/{name}"]
               for name in FILES]
    return [argv + mode for argv in reports for mode in ([], ["--json"])] \
        + errors


def _replay(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace(TMP, str(tmp)) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue().replace(str(tmp), TMP)}


def _write_files(files, tmp):
    for name, text in files.items():
        (tmp / name).write_text(text)


def test_cli_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", WIDTH)
    golden = json.loads(GOLDEN.read_text())
    _write_files(golden["files"], tmp_path)
    for run in golden["commands"]:
        assert {"argv": run["argv"], **_replay(run["argv"], tmp_path)} \
            == run, run["argv"]


if __name__ == "__main__":
    import tempfile
    os.environ["COLUMNS"] = WIDTH
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(FILES, Path(tmp))
        commands = [{"argv": argv, **_replay(argv, Path(tmp))}
                    for argv in _argvs()]
    GOLDEN.write_text(json.dumps({"files": FILES, "commands": commands},
                                 indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(commands)} commands in {GOLDEN}")
