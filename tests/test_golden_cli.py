"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Every case runs `mbsr.cli.main` in-process over one shipped fixture and
compares the result with the files under tests/golden/: one `<case>.stdout`
per case in a folder per fixture, and `expected.json` holding each case's
exit code and stderr. A refactor or speed-up must leave them unchanged.

The `verdicts` fixture stores Satisfy/Violate links on a Need and on checked
requirements; its extra cases disable R2 through a catalog override or
narrow the scope, so the matrix, the csv export and the SetReview report
show which cells come from current findings and which from stored links. The `phrase_rules`
fixture runs only its own cases: lint with the stock catalog, then lint and
the matrix with a config that turns the Guide's R7, R8 and R9 on as phrase
rules.

After a deliberate output change, regenerate the files and review the diff:

    PYTHONPATH=src python tests/test_golden_cli.py --update
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import mbsr.cli
import mbsr.rules
from mbsr.cli import main

REPO_DIR = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_DIR / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
R2_DISABLED = str(Path(__file__).resolve().parent / "fixtures" / "r2_disabled.cfg")
REQIF_MAPPING = str(Path(__file__).resolve().parent / "fixtures" / "reqif_mapping.cfg")
PHRASE_RULES = str(Path(__file__).resolve().parent / "fixtures" / "phrase_rules.cfg")
EXPECTED = GOLDEN_DIR / "expected.json"

_TABLE_COLUMNS = ("id,name,text,SR1,SR2,SR3,SR4,SR5,"
                  "R1,R2,R10,R16,TBX,C3,C4,C5,C7,C9")

_COMMON = {
    "lint": ["lint"],
    "validate": ["validate"],
    "metrics": ["metrics"],
    "matrix-csv": ["matrix", "--format", "csv"],
    "matrix-md": ["matrix", "--format", "md"],
    "export-md-overview": ["export", "--format", "md", "--template", "Overview"],
    "export-md-setreview": ["export", "--format", "md", "--template", "SetReview"],
    "export-csv": ["export", "--format", "csv", "--columns", _TABLE_COLUMNS],
    "export-xmi": ["export", "--format", "xmi"],
    "export-reqif": ["export", "--format", "reqif", "--mapping", REQIF_MAPPING],
    "export-dot": ["export", "--format", "dot"],
    "export-mbsr": ["export", "--format", "mbsr"],
    "glossary-check": ["glossary", "--check"],
}

_PARSE_IDS = {
    "asteroid": ["L3-EX.1", "L3-EX", "NO-SUCH-ID"],
    "metrics10": ["R-01", "R-05", "R-08", "R-10"],
    "mixed": ["M-01", "M-02", "M-03", "M-04"],
    "mixed_fixed": ["M-01", "M-03"],
    "tracechain": ["L3-A", "L3-A-copy", "L4-A", "L5-A"],
    "verdicts": ["N-01", "V-02"],
}

# fixture -> extra cases run on that fixture only
_EXTRA = {
    # between them, the trace cases give every TraceView field a value
    "tracechain": {
        "trace-L3-A": ["trace", "L3-A"],
        "trace-L4-A": ["trace", "L4-A"],
        "trace-L5-A": ["trace", "L5-A"],
        "trace-L3-A-copy": ["trace", "L3-A-copy"],
        "trace-L5-A-depth-1": ["trace", "L5-A", "--depth", "1"],
    },
    "verdicts": {
        "trace-V-01": ["trace", "V-01"],
        "matrix-csv-r2-off": ["--config", R2_DISABLED, "matrix", "--format", "csv"],
        "matrix-md-r2-off": ["--config", R2_DISABLED, "matrix", "--format", "md"],
        "export-md-setreview-r2-off": ["--config", R2_DISABLED, "export", "--format",
                                       "md", "--template", "SetReview"],
        "matrix-csv-scope": ["--scope", "V-SET", "matrix", "--format", "csv"],
        "export-md-setreview-scope": ["--scope", "V-SET", "export", "--format", "md",
                                      "--template", "SetReview"],
    },
    "phrase_rules": {
        "lint": ["lint"],
        "lint-phrase-rules": ["--config", PHRASE_RULES, "lint"],
        "matrix-csv-phrase-rules": ["--config", PHRASE_RULES, "matrix", "--format", "csv"],
    },
}

# cases whose output is built from verdicts; none may store a verdict link
_VERDICT_READERS = ("lint", "matrix-", "export-csv", "export-md-setreview")


def _cases() -> dict[str, list[str]]:
    """Case name ("<fixture>/<case>") -> argv after --corpus."""
    cases: dict[str, list[str]] = {}
    for fixture, parse_ids in _PARSE_IDS.items():
        for name, argv in _COMMON.items():
            cases[f"{fixture}/{name}"] = argv
        for req_id in parse_ids:
            cases[f"{fixture}/parse-{req_id}"] = ["parse", req_id]
    for fixture, extra in _EXTRA.items():
        for name, argv in extra.items():
            cases[f"{fixture}/{name}"] = argv
    return cases


CASES = _cases()


def run_case(case: str) -> tuple[int, str, str]:
    fixture = case.split("/", 1)[0]
    argv = ["--corpus", str(CORPUS_DIR / f"{fixture}.mbsr")] + CASES[case]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _stdout_path(case: str) -> Path:
    return GOLDEN_DIR / f"{case}.stdout"


@pytest.fixture(scope="module")
def expected() -> dict[str, dict]:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_golden_cases_match_the_case_table(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, expected):
    code, out, err = run_case(case)
    assert code == expected[case]["exit"]
    assert err == expected[case]["stderr"]
    assert out.encode("utf-8") == _stdout_path(case).read_bytes()


@pytest.mark.parametrize("fixture", sorted(_PARSE_IDS))
def test_lint_output_needs_no_verdict_links(fixture, expected, monkeypatch):
    """lint, matrix, the csv export and the SetReview report read verdicts
    from the findings: with apply_verdicts failing, every such case still
    gives its golden output."""
    def refuse(model, findings):
        raise AssertionError("verdict links were applied")

    for module in (mbsr, mbsr.rules, mbsr.cli):
        monkeypatch.setattr(module, "apply_verdicts", refuse, raising=False)
    cases = [c for c in sorted(CASES)
             if c.startswith(f"{fixture}/") and c.split("/", 1)[1].startswith(_VERDICT_READERS)]
    assert len(cases) >= 4
    for case in cases:
        code, out, err = run_case(case)
        assert code == expected[case]["exit"], case
        assert err == expected[case]["stderr"], case
        assert out.encode("utf-8") == _stdout_path(case).read_bytes(), case


def _update() -> None:
    expected: dict[str, dict] = {}
    for case in sorted(CASES):
        code, out, err = run_case(case)
        path = _stdout_path(case)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(out.encode("utf-8"))
        expected[case] = {"exit": code, "stderr": err}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_golden_cli.py --update")
    _update()
