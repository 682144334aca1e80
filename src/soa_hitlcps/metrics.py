"""Structural and competency metrics over a knowledge base.

``crr`` is the class-to-relation ratio: declared classes divided by declared
relations (object properties plus subclass links).  Competency questions are
shipped as queries; a question is answerable *instantly* when every predicate
and every class named in a type pattern is part of the vocabulary, otherwise
the kb *requires evolution* and the missing terms are reported.  ``eval_report``
aggregates the axiom checks, the question verdicts, the evolution-operation
inventory, the ratio, and the consistency findings into one deterministic
text report.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

from .errors import ZeroRelationsError
from .kb import Iri, KnowledgeBase, TYPE_PRED, read_document
from .query import QueryAst, check_name, evaluate, parse_query
from .reasoner import (
    axiom_inference_check,
    check_consistency,
    check_ontoclean,
    materialize,
    render_report,
)

INSTANT = "instant"
REQUIRES_EVOLUTION = "requires_evolution"


@dataclass(frozen=True)
class CrrResult:
    classes: int
    relations: int
    value: Decimal

    def line(self) -> str:
        return f"CRR {self.classes} {self.relations} {self.value}"


def crr(kb: KnowledgeBase) -> CrrResult:
    classes = len(kb.class_decls)
    relations = len(kb.property_decls) + len(kb.subclass_links)
    if relations == 0:
        raise ZeroRelationsError("no properties or subclass links declared")
    value = (Decimal(classes) / Decimal(relations)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )
    return CrrResult(classes, relations, value)


@dataclass(frozen=True)
class CqVerdict:
    name: str
    status: str
    missing: tuple = ()
    rows: tuple = ()

    def line(self) -> str:
        if self.status == INSTANT:
            return f"{self.name} {INSTANT} rows={len(self.rows)}"
        rendered = ",".join(str(term) for term in self.missing)
        return f"{self.name} {REQUIRES_EVOLUTION} missing={rendered}"


def vocabulary_gaps(kb: KnowledgeBase, ast: QueryAst):
    """Vocabulary terms the query needs that the kb does not declare.

    Checked: every pattern predicate, and the object of type patterns (a
    class position).  Subjects and non-type objects name individuals and are
    data, not vocabulary.
    """
    missing = set()
    for pattern in ast.patterns:
        predicate = pattern.predicate
        if not isinstance(predicate, Iri):
            continue  # a variable predicate matches whatever exists
        check_name(predicate, kb)
        if predicate != TYPE_PRED:
            if predicate not in kb.property_decls:
                missing.add(predicate)
        elif isinstance(pattern.object, Iri):
            check_name(pattern.object, kb)
            if pattern.object not in kb.class_decls:
                missing.add(pattern.object)
    return sorted(missing)


def run_cq(kb: KnowledgeBase, name: str, query_text: str) -> CqVerdict:
    ast = parse_query(query_text)
    missing = vocabulary_gaps(kb, ast)
    if missing:
        return CqVerdict(name, REQUIRES_EVOLUTION, missing=tuple(missing))
    table = evaluate(materialize(kb), ast)
    return CqVerdict(name, INSTANT, rows=tuple(table.rows))


def load_cq_dir(path) -> list:
    """Sorted (name, query text) pairs from the ``.q`` files in a directory."""
    folder = Path(path)
    entries = []
    for item in sorted(folder.glob("*.q")):
        entries.append((item.stem, read_document(item)))
    return entries


_ADAPTABILITY_INVENTORY = (
    "learned knowledge append: supported",
    "skill rescale: supported",
    "potential unlock: supported",
    "publish/withdraw cycle: supported",
)


@dataclass(frozen=True)
class EvalReport:
    accuracy: tuple
    completeness: tuple
    adaptability: tuple
    clarity: tuple
    consistency: tuple

    def sections(self):
        return (
            ("accuracy", self.accuracy),
            ("completeness", self.completeness),
            ("adaptability", self.adaptability),
            ("clarity", self.clarity),
            ("consistency", self.consistency),
        )

    def to_text(self) -> str:
        lines = []
        for name, body in self.sections():
            lines.append(f"[{name}]")
            lines.extend(body)
        return "\n".join(lines) + "\n"


def eval_report(kb: KnowledgeBase, cq_queries=None, include_ontoclean=None) -> EvalReport:
    """Aggregate metric sections for one kb.

    ``cq_queries`` is an iterable of (name, query text); ``include_ontoclean``
    defaults to whether the kb carries annotations.
    """
    accuracy = []
    for axiom in kb.axioms:
        verdict = "PASS" if axiom_inference_check(kb, axiom) else "FAIL"
        accuracy.append(f"{verdict} {axiom.head}")
    if not accuracy:
        accuracy.append("no class axioms")

    completeness = []
    for name, text in cq_queries or ():
        completeness.append(run_cq(kb, name, text).line())
    if not completeness:
        completeness.append("no competency questions supplied")

    result = crr(kb)
    clarity = [result.line()]

    report = check_consistency(kb)
    if include_ontoclean is None:
        include_ontoclean = bool(kb.annotations)
    if include_ontoclean:
        report.ontoclean_violations.extend(check_ontoclean(kb))
    consistency = render_report(report).rstrip("\n").split("\n")

    return EvalReport(
        accuracy=tuple(accuracy),
        completeness=tuple(completeness),
        adaptability=_ADAPTABILITY_INVENTORY,
        clarity=tuple(clarity),
        consistency=tuple(consistency),
    )
