"""The golden corpus of ``tests/golden``: every CLI case prints what ``cli.jsonl``
holds, and every grid set has the exact route sums that ``exact.jsonl`` holds.

A change that means to alter an output regenerates both files with
``tests/golden/regen.py`` and names each changed case.
"""
import json

from golden.regen import HERE, cases, exact_grid, exact_sums, run_case


def _records(name: str) -> list:
    with open(HERE / name, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_cli_cases_forward_then_reverse(monkeypatch):
    # genera and route tables stay in module memos from case to case, so a
    # case whose output hangs on what ran before it differs in one of the passes
    monkeypatch.chdir(HERE)
    expected = _records("cli.jsonl")
    assert [r["argv"] for r in expected] == cases()
    for record in expected + expected[::-1]:
        assert run_case(record["argv"]) == record


def test_exact_route_sums():
    expected = _records("exact.jsonl")
    assert [{k: r[k] for k in ("kind", "y", "p", "n", "points")} for r in expected] == exact_grid()
    for record in expected:
        assert exact_sums(record) == record
