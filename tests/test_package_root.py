"""Package root: the public names, star import, submodules and lazy loading.

Each check runs in a fresh interpreter, since what `import mbsr` binds and
loads depends on what the process imported before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of each submodule that the package root exports
OWNERS = {
    "catalog": "TBX_ID Applicability AttributeDef Automation Catalog "
               "CharacteristicDef Derivation PatternDef RuleDef ValueKind default_catalog "
               "load_catalog validate_catalog",
    "errors": "CorpusSyntaxError CorpusValidationError CycleDetectedError "
              "DerivedAttributeError DuplicateIdError EmptySlotError "
              "InvalidAttributeTokenError InvariantViolationError "
              "KindConstraintViolationError MappingMissingError MbsrError "
              "MembershipCycleError MetricHistoryError MissingMandatorySlotError "
              "NoInstancesError NoShallKeywordError ReadOnlyCopyError SlotNotAllowedError "
              "TraceDiscouragedWarning UnknownColumnError UnknownEndpointError "
              "UnknownIdError UnknownRootError UnknownScopeError",
    "glossary": "Glossary GlossaryTerm annotate find_undefined",
    "interchange": "export_dot export_reqif export_table export_xmi generate_report "
                   "import_xmi load_attribute_mapping load_corpus loads_corpus save_corpus "
                   "serialize_corpus",
    "metrics": "MetricInstance burndown compute_slot_completeness load_history_csv "
               "record_metric render_history_csv",
    "model": "DEFAULT_MODEL_UUID FIXED_EPOCH AttributeValue ElementKind ExpressionKind "
             "LinkKind Model ModelElement RequirementExpression RequirementSet SlotValue "
             "StructuredStatement TraceLink",
    "parser": "ParseDiagnostics count_shall parse_statement render_statement",
    "rules": "RuleFinding Verdict apply_verdicts check_expression check_scope check_text rollup",
    "trace": "KdrRow TraceView add_link all_links bidirectional_trace kdr_view matrix_rows "
             "remove_link",
}
OWNER = {name: module for module, names in OWNERS.items() for name in names.split()}
# that __all__ listed the names in code-point order, then __version__
EXPECTED_ALL = sorted(OWNER) + ["__version__"]

SUBMODULES = ("blockfile", "catalog", "errors", "glossary", "interchange", "metrics",
              "model", "parser", "rules", "textscan", "trace")


ALL = "import json, mbsr; print(json.dumps(mbsr.__all__))"

STAR_IMPORT = (
    "import importlib, json, sys\n"
    "ns = {}\n"
    "exec('from mbsr import *', ns)\n"
    "owner = json.loads(sys.argv[1])\n"
    "bound = sorted(k for k in ns if k != '__builtins__')\n"
    "bad = [n for n, m in owner.items()\n"
    "       if ns.get(n) is not getattr(importlib.import_module('mbsr.' + m), n)]\n"
    "print(json.dumps([bound, bad]))\n")

BARE_IMPORT = (
    "import json, types, mbsr\n"
    f"names = {SUBMODULES!r}\n"
    "print(json.dumps([n for n in names\n"
    "                  if isinstance(getattr(mbsr, n, None), types.ModuleType)]))\n")

SUBMODULE_IMPORT = (
    "import json, sys, mbsr.errors\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'mbsr')))\n")

UNKNOWN_NAME = (
    "import json, mbsr\n"
    "try:\n"
    "    mbsr.no_such_name\n"
    "except AttributeError as exc:\n"
    "    print(json.dumps(str(exc)))\n")


def start(script: str) -> subprocess.Popen:
    """A new interpreter that imports mbsr from src/ and runs script."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", script, json.dumps(OWNER)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture(scope="module")
def run_fresh():
    """Run a script of this module in its own interpreter and return the JSON
    it prints. The interpreters all start at once, so that they run side by
    side; each test waits for its own."""
    procs = {script: start(script)
             for script in (ALL, STAR_IMPORT, BARE_IMPORT, SUBMODULE_IMPORT, UNKNOWN_NAME)}

    def run(script: str):
        proc = procs[script]
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr
        return json.loads(stdout)

    yield run
    for proc in procs.values():
        if proc.returncode is None:  # its test failed or was not run
            proc.kill()
            proc.communicate()


def test_all_lists_the_public_names_in_order(run_fresh):
    assert len(EXPECTED_ALL) == 91
    assert run_fresh(ALL) == EXPECTED_ALL


def test_star_import_binds_each_name_from_its_module(run_fresh):
    bound, mismatched = run_fresh(STAR_IMPORT)
    assert bound == sorted(EXPECTED_ALL)
    assert mismatched == []


def test_bare_import_gives_every_submodule(run_fresh):
    assert run_fresh(BARE_IMPORT) == list(SUBMODULES)


def test_submodule_import_loads_only_that_module(run_fresh):
    assert run_fresh(SUBMODULE_IMPORT) == ["mbsr", "mbsr.errors"]


def test_unknown_name_raises_attribute_error(run_fresh):
    assert run_fresh(UNKNOWN_NAME) == "module 'mbsr' has no attribute 'no_such_name'"
