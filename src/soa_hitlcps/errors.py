"""Exception types shared across the package.

Every domain error raised by the library derives from :class:`SoaHitlcpsError`
so callers (notably the CLI) can distinguish domain failures (exit code 1)
from usage mistakes (exit code 2).
"""

from __future__ import annotations


class SoaHitlcpsError(Exception):
    """Base class for all domain errors."""


class ParseError(SoaHitlcpsError):
    """A document (kb, query, scenario, ...) failed to parse.

    Carries the 1-based line and column of the offending token and a short
    description of what was expected there.
    """

    def __init__(self, line: int, column: int, expected: str):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: expected {expected}")


class UnknownPrefixError(SoaHitlcpsError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown prefix: {name!r}")


class CyclicSubclassError(SoaHitlcpsError):
    def __init__(self, path):
        self.path = list(path)
        chain = " -> ".join(str(c) for c in self.path)
        super().__init__(f"cyclic subclass chain: {chain}")


class DeclarationConflictError(SoaHitlcpsError):
    """A CLASS/PROPERTY/META redeclaration contradicts an earlier one."""


class UnannotatedClassError(SoaHitlcpsError):
    def __init__(self, iri):
        self.iri = iri
        super().__init__(f"class {iri} participates in a subclass link but has no annotation record")


class UnboundProjectionError(SoaHitlcpsError):
    def __init__(self, var: str):
        self.var = var
        super().__init__(f"projected variable ?{var} is not bound by any pattern")


class UnboundFilterVarError(SoaHitlcpsError):
    def __init__(self, var: str):
        self.var = var
        super().__init__(f"filter variable ?{var} is not bound by any pattern")


class UnknownTaxonomyTermError(SoaHitlcpsError):
    def __init__(self, term):
        self.term = term
        super().__init__(f"term {term} is not in the shipped taxonomy")


class DuplicateIndividualError(SoaHitlcpsError):
    pass


class UnknownProviderError(SoaHitlcpsError):
    pass


class UnknownServiceError(SoaHitlcpsError):
    pass


class UnknownNodeError(SoaHitlcpsError):
    pass


class InvalidProfileError(SoaHitlcpsError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"invalid service profile: {reason}")


class RatingOutOfRangeError(SoaHitlcpsError):
    pass


class NoCompletedInvocationError(SoaHitlcpsError):
    pass


class EmptyCriteriaError(SoaHitlcpsError):
    """A discovery request must carry at least one criterion."""


class InputSignatureMismatchError(SoaHitlcpsError):
    pass


class InvalidStateError(SoaHitlcpsError):
    pass


class ZeroRelationsError(SoaHitlcpsError):
    """CRR is undefined for an ontology with no relations."""


class EmptyTaskListError(SoaHitlcpsError):
    pass
