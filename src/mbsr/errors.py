"""Exception types shared across the package.

Every failure raised by this package derives from MbsrError so callers can
catch one base class at API boundaries. Warnings derive from the stdlib
warning hierarchy instead, since they must flow through warnings filters.
"""

from __future__ import annotations


class MbsrError(Exception):
    """Base class for all errors raised by this package."""


class _LineError(MbsrError):
    """An error in a line-oriented input; the message leads with the
    1-based line when one is given."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# --- model store ---

class DuplicateIdError(MbsrError):
    pass


class UnknownIdError(MbsrError):
    pass


class UnknownMemberError(MbsrError):
    pass


class MembershipCycleError(MbsrError):
    pass


class UnknownAttributeKeyError(MbsrError):
    pass


class InvalidAttributeTokenError(MbsrError):
    pass


class DerivedAttributeError(MbsrError):
    """Raised on attempts to write a derived attribute directly."""


class ReadOnlyCopyError(MbsrError):
    """Raised on direct edits to a requirement that mirrors a Copy source."""


# --- catalog ---

class CatalogParseError(_LineError):
    pass


class InvariantViolationError(MbsrError):
    pass


# --- statement parsing ---

class NoShallKeywordError(MbsrError):
    pass


class EmptySlotError(MbsrError):
    def __init__(self, slot: str):
        super().__init__(f"slot {slot} is empty")
        self.slot = slot


class MissingMandatorySlotError(MbsrError):
    def __init__(self, slot: str, pattern: str):
        super().__init__(f"pattern {pattern} requires slot {slot}")
        self.slot = slot
        self.pattern = pattern


class SlotNotAllowedError(MbsrError):
    def __init__(self, slot: str, pattern: str):
        super().__init__(f"pattern {pattern} does not use slot {slot}")
        self.slot = slot
        self.pattern = pattern


# --- trace graph ---

class UnknownEndpointError(MbsrError):
    pass


class KindConstraintViolationError(MbsrError):
    pass


class CycleDetectedError(MbsrError):
    pass


class TraceDiscouragedWarning(UserWarning):
    """Emitted when a generic Trace link is added; prefer a specific kind."""


# --- scope resolution ---

class UnknownScopeError(MbsrError):
    pass


class UnknownRootError(UnknownScopeError):
    pass


# --- metrics ---

class NoInstancesError(MbsrError):
    pass


class MetricHistoryError(MbsrError):
    """Raised on a metric history row whose values do not parse."""


# --- interchange ---

class CorpusSyntaxError(_LineError):
    pass


class CorpusValidationError(_LineError):
    pass


class MappingMissingError(MbsrError):
    def __init__(self, attribute_key: str):
        super().__init__(f"no interchange mapping for populated attribute {attribute_key}")
        self.attribute_key = attribute_key


class UnknownColumnError(MbsrError):
    pass
