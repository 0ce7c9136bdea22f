"""Start-up cost: what a CLI command imports beyond what the process held.

Each command runs in a fresh interpreter, since `sys.modules` depends on
what the process imported before. `validate` and the plain exporters load
neither the rule checkers, the parser and the metrics nor `dataclasses` and
`xml.etree`; those cost compile and import time on every run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
CORPUS = str(REPO / "fixtures" / "asteroid.mbsr")
PHRASE_RULES = str(REPO / "tests" / "fixtures" / "phrase_rules.cfg")

SCRIPT = (
    "import io, json, sys\n"
    "from contextlib import redirect_stderr, redirect_stdout\n"
    "before = set(sys.modules)\n"
    "import mbsr.cli\n"
    "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
    "    code = mbsr.cli.main(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
)

UNUSED_BY_PLAIN_COMMANDS = ("dataclasses", "mbsr.rules", "mbsr.metrics", "mbsr.parser",
                            "xml.etree.ElementTree")


def loaded_by(*argv: str) -> tuple[int, list[str]]:
    """Exit code and the modules `mbsr.cli.main` imported for argv."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(["--corpus", CORPUS, *argv])],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, modules


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["export", "--format", "mbsr"],
    ["export", "--format", "xmi"],
    ["export", "--format", "csv"],
    ["--config", PHRASE_RULES, "validate"],  # a catalog with phrase rules
])
def test_plain_commands_skip_the_checkers_and_dataclasses(argv):
    code, modules = loaded_by(*argv)
    assert code == 0
    assert "mbsr.interchange" in modules  # the snapshot came before the package
    assert [m for m in UNUSED_BY_PLAIN_COMMANDS if m in modules] == []


def test_lint_skips_metrics_and_dataclasses():
    code, modules = loaded_by("lint")
    assert code == 0
    assert "mbsr.rules" in modules
    assert [m for m in ("dataclasses", "mbsr.metrics") if m in modules] == []
