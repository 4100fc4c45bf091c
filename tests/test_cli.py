"""Command-line interface: verbs, formats, exit codes."""
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from zpgenus.cli import _VERBS, build_parser, main


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_cpn_emit_and_compute_roundtrip(tmp_path, capsys):
    path = tmp_path / "cp2_p5.json"
    rc = main(["cpn", "--p", "5", "--n", "2", "--emit", str(path)])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc == {"p": 5, "n": 2, "fixed_points": [[1, 2], [4, 1], [3, 4]]}
    assert json.loads(path.read_text()) == doc

    rc = main(["compute", "--genus", "td", "--weights", str(path), "--format", "json"])
    assert rc == 0
    report = _json_out(capsys)
    assert report["agree"] is True
    assert report["result"] == "1"
    assert report["results"] == {"pseries": "1", "ab": "1", "trace": "1"}


def test_compute_single_route_text(capsys):
    rc = main(
        ["compute", "--genus", "euler", "--p", "7", "--residues", "0,1,2,3",
         "--route", "pseries"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "route: pseries" in lines
    assert "result: 4" in lines


def test_compute_marks_unavailable_routes(capsys):
    # 1 + y ≡ 0 mod 5 shuts down both theta routes; pseries still works
    rc = main(
        ["compute", "--genus", "chi_y:4", "--p", "5", "--residues", "0,1",
         "--format", "json"]
    )
    assert rc == 0
    report = _json_out(capsys)
    assert report["results"]["pseries"] == "2"
    assert report["results"]["ab"].startswith("unavailable")
    assert report["results"]["trace"].startswith("unavailable")
    assert "agree" not in report and report["result"] == "2"


def test_compute_output_deterministic(capsys):
    argv = ["compute", "--genus", "L", "--p", "5", "--residues", "0,1,2", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_ab_verb(capsys):
    rc = main(["ab", "--genus", "td", "--p", "5", "--residues", "1,2", "--format", "json"])
    assert rc == 0
    report = _json_out(capsys)
    assert report["agree"] is True
    assert report["coefficient_route"]["mod_p"] == report["trace_route"]["mod_p"]


def test_legendre_projective_and_power_system(capsys):
    assert main(["legendre", "--p", "5", "--n", "2", "--format", "json"]) == 0
    rep = _json_out(capsys)
    assert rep["check"] == "projective" and rep["equal"] is True

    assert main(["legendre", "--p", "5", "--format", "json"]) == 0
    rep = _json_out(capsys)
    assert rep["check"] == "power-system" and rep["equal"] is True

    assert main(["legendre", "--p", "5", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "error: BadParams" in err

    assert main(["legendre", "--p", "10007"]) == 2  # above EQ46_MAX_P
    assert "EQ46_MAX_P" in capsys.readouterr().err


def test_legendre_checks_residues_against_n(capsys):
    # With both flags the residues must have n + 1 entries for an even n;
    # a consistent pair prints what either flag alone prints.
    runs, five = {}, ["--residues", "0,1,2,3,4"]
    for argv in (five, ["--n", "4"], five + ["--n", "4"]):
        for fmt in ("text", "json"):
            assert main(["legendre", "--p", "7", *argv, "--format", fmt]) == 0
            runs.setdefault(fmt, []).append(capsys.readouterr().out)
    for outs in runs.values():
        assert outs[0] == outs[1] == outs[2]
    for argv, detail in ((["--residues", "0,1,2", "--n", "4"], "contradicts"),
                         (["--residues", "0,1,2", "--n", "3"], "even n"),
                         (["--residues", "0,1,2,3", "--n", "3"], "even n")):
        assert main(["legendre", "--p", "7", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error: BadParams" in captured.err
        assert detail in captured.err, argv


def test_cpn_checks_residues_against_n(tmp_path, capsys):
    # With both flags the residues must have n + 1 entries; a consistent pair
    # prints what the residues alone print, and a contradicting one writes nothing.
    outs = []
    for argv in (["--residues", "0,1,2"], ["--n", "2"], ["--residues", "0,1,2", "--n", "2"]):
        assert main(["cpn", "--p", "7", *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    path = tmp_path / "cp.json"
    for n in ("5", "1"):
        argv = ["cpn", "--p", "7", "--residues", "0,1,2", "--n", n, "--emit", str(path)]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error: BadParams" in captured.err
        assert f"--n {n} contradicts n = 2" in captured.err
        assert not path.exists()


def test_thm71_verb_and_guard(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["cpn", "--p", "5", "--n", "2", "--emit", str(path)]) == 0
    capsys.readouterr()

    rc = main(["thm71", "--genus", "td", "--weights", str(path), "--format", "json"])
    assert rc == 0
    rep = _json_out(capsys)
    assert rep["equal"] is True and rep["p"] == 5 and rep["n"] == 2

    big = tmp_path / "cp4.json"
    assert main(["cpn", "--p", "5", "--n", "4", "--emit", str(big)]) == 0
    capsys.readouterr()
    rc = main(["thm71", "--genus", "td", "--weights", str(big)])
    assert rc == 2
    assert "GuardViolation" in capsys.readouterr().err

    rc = main(["thm71", "--genus", "td", "--weights", str(big), "--force", "--format", "json"])
    assert rc in (0, 1)
    assert "equal" in _json_out(capsys)


def test_thm71_serves_euler(capsys):
    # euler's B is (p-1)/(1-u): each of the 4 points of CP^3 adds -(p-1) ≡ 1
    argv = ["thm71", "--genus", "euler", "--p", "7", "--residues", "0,1,2,3", "--format", "json"]
    assert main(argv) == 0
    rep = _json_out(capsys)
    assert rep["lhs_mod_p"] == rep["rhs_mod_p"] == 4 and rep["equal"] is True


def test_chi_y_at_minus_one_is_served_as_euler(capsys):
    # chi_y at y = -1 is the euler genus (theta = 1), so every route and thm71
    # serve it with euler's values; y = 4 ≡ -1 mod 5 is degenerate and refused
    args = ["--p", "5", "--residues", "0,1,2", "--format", "json"]
    assert main(["compute", "--genus", "chi_y:-1", *args]) == 0
    assert _json_out(capsys)["results"] == {"pseries": "3", "ab": "3", "trace": "3"}
    reports = []
    for name in ("chi_y:-1", "euler"):
        assert main(["thm71", "--genus", name, *args]) == 0
        reports.append({k: v for k, v in _json_out(capsys).items() if k != "genus"})
    assert reports[0] == reports[1]
    assert reports[0]["ab_sum"] == "-12" and reports[0]["lhs_mod_p"] == reports[0]["rhs_mod_p"] == 3
    assert main(["compute", "--genus", "chi_y:4", *args]) == 0
    assert _json_out(capsys)["results"] == {"pseries": "3", "ab": "unavailable (BadParams)",
                                            "trace": "unavailable (BadParams)"}
    assert main(["thm71", "--genus", "chi_y:4", *args]) == 2
    assert "theta degenerates" in capsys.readouterr().err


def test_compute_checks_an_empty_set_on_every_route(tmp_path, capsys):
    # no fixed points: pseries sums to 0, while ab and trace refuse the
    # elliptic genus as they would on any set
    path = tmp_path / "empty.json"
    path.write_text('{"p": 5, "n": 2, "fixed_points": []}')
    rc = main(["compute", "--genus", "elliptic", "--weights", str(path), "--format", "json"])
    assert rc == 0
    report = _json_out(capsys)
    assert report["results"] == {"pseries": "0", "ab": "unavailable (UnsupportedKind)",
                                 "trace": "unavailable (UnsupportedKind)"}
    assert "agree" not in report and report["result"] == "0"


def test_compute_agree_needs_two_answers(tmp_path, capsys):
    # agree is printed only when two or more routes answer: one answer is the
    # result (exit 0), no answer or disagreeing answers give no result (exit 1)
    path = tmp_path / "w.json"
    path.write_text('{"p": 5, "n": 2, "fixed_points": [[1, 1], [1, 2]]}')  # not realizable
    runs = (
        (["--genus", "elliptic", "--p", "5", "--residues", "0,1,2"], 0, {"result": "1*delta"}),
        (["--genus", "chi_y:1/5", "--p", "5", "--residues", "0,1,2"], 1, {}),
        (["--genus", "td", "--weights", str(path)], 1, {"agree": False}),
        (["--genus", "td", "--p", "5", "--residues", "0,1,2"], 0, {"agree": True, "result": "1"}),
    )
    for argv, code, tail in runs:
        assert main(["compute", *argv, "--format", "json"]) == code, argv
        report = _json_out(capsys)
        assert {k: report[k] for k in ("agree", "result") if k in report} == tail, argv


def test_submanifold_verb(tmp_path, capsys):
    path = tmp_path / "sub.json"
    path.write_text(
        '{"p": 3, "components": [{"normal_weights": [], "genus_value": "7/4"}]}'
    )
    rc = main(["submanifold", "--genus", "td", "--weights", str(path), "--format", "json"])
    assert rc == 0
    assert _json_out(capsys)["result"] == "1"


def test_cf_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["cpn", "--p", "5", "--n", "2", "--emit", str(good)]) == 0
    capsys.readouterr()
    assert main(["cf-check", "--genus", "td", "--weights", str(good)]) == 0
    assert "all_zero: True" in capsys.readouterr().out

    junk = tmp_path / "junk.json"
    junk.write_text('{"p": 5, "n": 1, "fixed_points": [[1]]}')
    assert main(["cf-check", "--genus", "td", "--weights", str(junk)]) == 1
    assert "all_zero: False" in capsys.readouterr().out


def test_cpn_emit_to_an_unwritable_path_exits_2(tmp_path, capsys):
    # A file that cannot be written is a BadParams naming it, not a traceback,
    # and nothing is printed.
    missing = tmp_path / "no" / "such" / "x.json"
    for target in (missing, tmp_path):
        assert main(["cpn", "--p", "7", "--n", "2", "--emit", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: BadParams" in captured.err
        assert "cannot write emit file" in captured.err and str(target) in captured.err
    assert not missing.parent.exists()


def test_bad_input_exits_2(tmp_path, capsys):
    assert main(["compute", "--genus", "td", "--weights", "/no/such/file.json"]) == 2
    assert "error: BadParams" in capsys.readouterr().err

    assert main(["compute", "--genus", "td", "--p", "5"]) == 2
    capsys.readouterr()

    assert main(["ab", "--genus", "td", "--residues", "1"]) == 2
    capsys.readouterr()

    assert main(["compute", "--genus", "nope", "--p", "5", "--residues", "0,1"]) == 2
    capsys.readouterr()

    for p in (2053, 2**61 - 1):  # above the trace route's TRACE_MAX_P
        rc = main(["compute", "--genus", "td", "--p", str(p), "--residues", "0,1,2",
                   "--route", "trace"])
        assert rc == 2
        assert "TRACE_MAX_P" in capsys.readouterr().err

    rc = main(["compute", "--genus", "td", "--p", "7", "--residues", "0,1",
               "--format", "json", "--route", "pseries", "--weights", "/no/file"])
    assert rc == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "BadParams"

    # malformed JSON data, including booleans, which json gives as ints
    bad_docs = {
        "compute": [
            '{"p": 5, "n": true, "fixed_points": [[1]]}',
            '{"p": 5, "n": 1, "fixed_points": [[true]]}',
            '{"p": [7], "n": 1, "fixed_points": [[1]]}',
        ],
        "submanifold": [
            '{"p": 5, "components": [{"normal_weights": 5, "genus_value": 1}]}',
            '{"p": 5, "components": [{"normal_weights": null, "genus_value": 1}]}',
            '{"p": 5, "components": [{"normal_weights": [true], "genus_value": 1}]}',
            '{"p": 5, "components": [{"normal_weights": [1], "genus_value": true}]}',
            '{"p": {}, "components": []}',
        ],
    }
    for verb, docs in bad_docs.items():
        for i, doc in enumerate(docs):
            path = tmp_path / f"{verb}{i}.json"
            path.write_text(doc)
            rc = main([verb, "--genus", "td", "--weights", str(path), "--format", "json"])
            assert rc == 2, doc
            assert json.loads(capsys.readouterr().err)["error"] == "BadParams", doc


# Each verb with a bad input; the error name and detail go to stderr, nothing to stdout.
BAD_INPUTS = [
    (["compute", "--genus", "td", "--p", "4", "--residues", "0,1"], "BadParams"),
    (["cf-check", "--genus", "td", "--p", "5", "--residues", "0,5"], "DuplicateResidues"),
    (["ab", "--genus", "td", "--p", "7", "--residues", "0,2"], "ZeroWeight"),
    (["cpn", "--p", "4", "--n", "1"], "BadParams"),
    (["legendre", "--p", "7", "--n", "3"], "BadParams"),
    (["thm71", "--genus", "td", "--p", "5", "--residues", "0,1,2,3,4"], "GuardViolation"),
    (["submanifold", "--genus", "td", "--weights", "/no/such/file.json"], "BadParams"),
]


@pytest.mark.parametrize("argv, error", BAD_INPUTS, ids=[argv[0] for argv, _ in BAD_INPUTS])
def test_bad_input_exits_2_with_diagnostic(argv, error, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name, detail = captured.err.splitlines()
    assert name == f"error: {error}" and detail.startswith("detail: ")


def test_selftest_bad_input_exits_2(capsys):
    # selftest reads only --format, so its one bad input is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err


# A verb takes only the flags it reads; these were accepted and ignored before.
DROPPED_FLAGS = [
    (["compute", "--genus", "td", "--p", "5", "--residues", "0,1,2"], "--n", "2"),
    (["cf-check", "--genus", "td", "--p", "5", "--residues", "0,1,2"], "--n", "2"),
    (["ab", "--genus", "td", "--p", "5", "--residues", "1,2"], "--n", "2"),
    (["cpn", "--p", "5", "--n", "2"], "--format", "json"),
    (["thm71", "--genus", "td", "--p", "5", "--residues", "0,1,2"], "--n", "2"),
    (["submanifold", "--genus", "td", "--weights", "sub.json"], "--p", "5"),
    (["submanifold", "--genus", "td", "--weights", "sub.json"], "--residues", "0,1"),
    (["submanifold", "--genus", "td", "--weights", "sub.json"], "--n", "2"),
    (["selftest"], "--p", "5"),
    (["selftest"], "--residues", "0,1"),
    (["selftest"], "--n", "2"),
]


@pytest.mark.parametrize(
    "argv, flag, value", DROPPED_FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag, _ in DROPPED_FLAGS]
)
def test_dropped_flags_exit_2(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _readme_examples():
    """(argv, shown stdout) for each `$ zpgenus` line of the README's sh blocks, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ zpgenus "):
                shown = itertools.takewhile(lambda out: not out.startswith("$ "), lines[i + 1:])
                yield shlex.split(line)[2:], "".join(out + "\n" for out in shown)


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # run in order, since an example may read a file an earlier one wrote
    monkeypatch.chdir(tmp_path)
    examples = list(_readme_examples())
    assert sum(1 for _, shown in examples if shown) == 3
    for argv, shown in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if shown:
            assert out == shown, argv


def test_selftest(capsys):
    assert main(["selftest", "--format", "json"]) == 0
    rep = _json_out(capsys)
    assert rep["all_ok"] is True
    assert len(rep["checks"]) == 11
    assert all(c["ok"] for c in rep["checks"])


def test_a_one_verb_parser_keeps_the_usage_line(capsys):
    # only the named verb's subparser is built, under the usage all of them give
    usage = build_parser([]).format_usage()
    assert "{compute,cf-check,ab,cpn,legendre,thm71,submanifold,selftest}" in usage
    for verb, *_ in _VERBS:
        parser = build_parser([verb, "--help"])
        assert parser.format_usage() == usage
        assert list(parser._subparsers._group_actions[0].choices) == [verb]
    with pytest.raises(SystemExit):
        main(["compute", "--genus", "td", "--p", "5", "--residues", "0,1", "extra"])
    assert capsys.readouterr().err.startswith(usage)


def test_submanifold_help_states_its_assumption(capsys):
    for argv in (["--help"], ["submanifold", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        assert "assumes equivariantly trivial normal bundles" in " ".join(
            capsys.readouterr().out.split()), argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("zpgenus ")


def test_a_cli_import_loads_only_what_a_query_runs():
    # no dataclasses, inspect, typing or Legendre checks; -S, as a site hook may
    # import typing first
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", str(root / "tests" / "check_imports.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ok {root / 'src' / 'zpgenus' / '__init__.py'}\n"
