"""Structured-requirements toolkit.

Requirement statements decompose into pattern slots that reference system
model elements; automated writing rules check the statements; links, sets,
metrics, and exporters make the collection a managed model rather than a
document. Start with load_corpus or Model, then parse_statement,
check_scope, and the exporters.

Each public name, and each submodule, is imported on first use, so
`import mbsr.errors` does not load the rest of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it exports from the package root
_EXPORTS: dict[str, tuple[str, ...]] = {
    "blockfile": (),
    "catalog": (
        "TBX_ID",
        "Applicability",
        "AttributeDef",
        "Automation",
        "Catalog",
        "CharacteristicDef",
        "Derivation",
        "PatternDef",
        "RuleDef",
        "ValueKind",
        "default_catalog",
        "load_catalog",
        "validate_catalog",
    ),
    "errors": (
        "CorpusSyntaxError",
        "CorpusValidationError",
        "CycleDetectedError",
        "DerivedAttributeError",
        "DuplicateIdError",
        "EmptySlotError",
        "InvalidAttributeTokenError",
        "InvariantViolationError",
        "KindConstraintViolationError",
        "MappingMissingError",
        "MbsrError",
        "MembershipCycleError",
        "MetricHistoryError",
        "MissingMandatorySlotError",
        "NoInstancesError",
        "NoShallKeywordError",
        "ReadOnlyCopyError",
        "SlotNotAllowedError",
        "TraceDiscouragedWarning",
        "UnknownColumnError",
        "UnknownEndpointError",
        "UnknownIdError",
        "UnknownRootError",
        "UnknownScopeError",
    ),
    "glossary": (
        "Glossary",
        "GlossaryTerm",
        "annotate",
        "find_undefined",
    ),
    "interchange": (
        "export_dot",
        "export_reqif",
        "export_table",
        "export_xmi",
        "generate_report",
        "import_xmi",
        "load_attribute_mapping",
        "load_corpus",
        "loads_corpus",
        "save_corpus",
        "serialize_corpus",
    ),
    "metrics": (
        "MetricInstance",
        "burndown",
        "compute_slot_completeness",
        "load_history_csv",
        "record_metric",
        "render_history_csv",
    ),
    "model": (
        "DEFAULT_MODEL_UUID",
        "FIXED_EPOCH",
        "AttributeValue",
        "ElementKind",
        "ExpressionKind",
        "LinkKind",
        "Model",
        "ModelElement",
        "RequirementExpression",
        "RequirementSet",
        "SlotValue",
        "StructuredStatement",
        "TraceLink",
    ),
    "parser": (
        "ParseDiagnostics",
        "count_shall",
        "parse_statement",
        "render_statement",
    ),
    "rules": (
        "RuleFinding",
        "Verdict",
        "apply_verdicts",
        "check_expression",
        "check_scope",
        "check_text",
        "rollup",
    ),
    "records": (),
    "textscan": (),
    "trace": (
        "KdrRow",
        "TraceView",
        "add_link",
        "all_links",
        "bidirectional_trace",
        "kdr_view",
        "matrix_rows",
        "remove_link",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
