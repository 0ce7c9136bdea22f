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


PLAIN_COMMANDS = [
    ["validate"],
    ["export", "--format", "mbsr"],
    ["export", "--format", "xmi"],
    ["export", "--format", "csv"],
    ["--config", PHRASE_RULES, "validate"],  # a catalog with phrase rules
]


def start(argv: list[str]) -> subprocess.Popen:
    """A fresh interpreter running `mbsr.cli.main(argv)`; it prints the exit
    code and the modules the call imported."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT, json.dumps(["--corpus", CORPUS, *argv])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture(scope="module")
def children():
    """Every command's interpreter, all started at once so that they run
    side by side; each test waits for its own."""
    procs = {tuple(argv): start(argv) for argv in [*PLAIN_COMMANDS, ["lint"]]}
    yield procs
    for proc in procs.values():
        if proc.returncode is None:  # its test failed or was not run
            proc.kill()
            proc.communicate()


def loaded_by(children, *argv: str) -> tuple[int, list[str]]:
    """Exit code and the modules `mbsr.cli.main` imported for argv."""
    proc = children[argv]
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0, stderr
    code, modules = json.loads(stdout)
    return code, modules


@pytest.mark.parametrize("argv", PLAIN_COMMANDS)
def test_plain_commands_skip_the_checkers_and_dataclasses(argv, children):
    code, modules = loaded_by(children, *argv)
    assert code == 0
    assert "mbsr.interchange" in modules  # the snapshot came before the package
    assert [m for m in UNUSED_BY_PLAIN_COMMANDS if m in modules] == []


def test_lint_skips_metrics_and_dataclasses(children):
    code, modules = loaded_by(children, "lint")
    assert code == 0
    assert "mbsr.rules" in modules
    assert [m for m in ("dataclasses", "mbsr.metrics") if m in modules] == []
