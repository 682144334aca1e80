"""Forward-chaining materialization, consistency and OntoClean checking.

Materialization computes the least fixpoint of three rules:

* type inheritance: ``x TYPE C`` and ``C SUBCLASSOF D`` imply ``x TYPE D``;
* subclass transitivity;
* axiom application: an individual satisfying an axiom body (all conjuncts
  for a conjunction; some asserted-or-inferred fact ``x p y`` with
  ``y TYPE C`` for an existential) gains the head type.

``materialize`` adds nothing to its input; rules only add, so the result
is idempotent and monotone.  No rule derives a fact, so the result shares
its input's facts (see ``KnowledgeBase.share_facts``) and holds its own
declarations and type assertions: a view of the input whose only
materialized part is the types (Gupta & Mumick, IEEE Data Eng. Bull. 18(2),
1995).  No rule adds a subclass link, so each class's ancestors are
computed once up front; type inheritance then runs once per assertion of a
class that has an ancestor and whenever an axiom adds a type, and only
axiom application is iterated.

Axiom application runs in semi-naive rounds: the first tests only the
seeds, the individuals that an index bucket of some axiom body holds (see
``_seeds``), and each later one only what the round before can have
changed (see ``_apply_axioms``), so no round is spent confirming the
fixpoint.

``refresh`` keeps such a closure current without a rebuild.  Of the graph
edits journaled on the knowledge base since, each one statement (see
``kb``), it replays only the type edits, since the closure already shares
every fact, then re-derives only the individuals whose inferred types those
edits can change.  A type edit can; a fact edit can only when some axiom
body quantifies over its predicate, so most edits re-derive nothing.
It returns the predicates and classes it changed, so that a follower can
keep the answers of queries that read none of them.  A declaration disarms
the journal, so its follower rebuilds instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnannotatedClassError
from .kb import (
    ClassAxiom,
    ClassExpr,
    Conjunction,
    Iri,
    KnowledgeBase,
    NamedClass,
    SomeValues,
    TYPE_PRED,
    subclass_parents,
    term_sort_key,
)


def _satisfies(kb: KnowledgeBase, individual: Iri, expr: ClassExpr) -> bool:
    if isinstance(expr, NamedClass):
        return (individual, expr.iri) in kb.type_assertions
    if isinstance(expr, SomeValues):
        if expr.prop == TYPE_PRED:
            return False  # type assertions are not facts
        for stmt in kb.statements_about(individual):
            if (
                stmt.predicate == expr.prop
                and isinstance(stmt.object, Iri)
                and (stmt.object, expr.filler) in kb.type_assertions
            ):
                return True
        return False
    return all(_satisfies(kb, individual, part) for part in expr.parts)


def _add_with_ancestors(out: KnowledgeBase, above: dict, individual: Iri, cls: Iri) -> None:
    for c in (cls, *above.get(cls, ())):
        if (individual, c) not in out.type_assertions:
            out.add_type(individual, c)


def _seeds(kb: KnowledgeBase, expr: ClassExpr) -> set:
    """A set holding every individual that can satisfy ``expr``, read from ``kb``'s index.

    Rete's alpha memories (Forgy 1982) index a rule by its condition in the
    same way: a named class gives its instances, ``p SOME C`` the subjects
    of ``p`` facts (none for ``TYPE_PRED``: type assertions are not facts),
    and a conjunction the smallest of its parts' seeds.
    """
    if isinstance(expr, NamedClass):
        return set(kb.instances(expr.iri))
    if isinstance(expr, SomeValues):
        return set() if expr.prop == TYPE_PRED else {stmt.subject for stmt in kb.statements_with(expr.prop)}
    return min((_seeds(kb, part) for part in expr.parts), key=len) if expr.parts else kb.individuals()


def _quantified(axioms) -> set:
    """The predicates some axiom body quantifies over (``p SOME C``)."""
    props, exprs = set(), [axiom.body for axiom in axioms]
    while exprs:
        expr = exprs.pop()
        if isinstance(expr, SomeValues):
            props.add(expr.prop)
        elif isinstance(expr, Conjunction):
            exprs.extend(expr.parts)
    return props


def _apply_axioms(out: KnowledgeBase, above: dict, candidates, quantified: set) -> None:
    """Give each candidate the head of every axiom it satisfies, to the fixpoint.

    The rounds are semi-naive (Bancilhon & Ramakrishnan 1986): the first
    tests ``candidates`` (a build passes only the seeds of the axiom
    bodies), and each later round only the individuals that gained a type
    in the round before and the subjects of ``quantified`` facts whose
    object gained one, since no other individual's axiom bodies can have
    changed.
    """
    while candidates:
        gained = set()
        for axiom in out.axioms:
            for individual in candidates:
                if (individual, axiom.head) in out.type_assertions:
                    continue
                if _satisfies(out, individual, axiom.body):
                    _add_with_ancestors(out, above, individual, axiom.head)
                    gained.add(individual)
        candidates = set(gained)
        for individual in gained:
            candidates.update(stmt.subject for stmt in out.statements_to(individual)
                              if stmt.predicate in quantified)


def materialize(kb: KnowledgeBase) -> KnowledgeBase:
    """Return ``kb`` extended to the least inference fixpoint, sharing its facts.

    The result holds its own declarations and type assertions, and shares
    ``kb``'s ``statements`` set and fact index (see
    :meth:`KnowledgeBase.share_facts`): a fact written to ``kb`` is in the
    result at once.  Write facts to ``kb`` alone, and call ``.copy()`` on the
    result for a graph independent of ``kb``.
    """
    out = kb.share_facts()
    above = out.close_subclass_links()  # no rule adds a subclass link: close them once, before the loop
    for cls in above:
        for individual in out.instances(cls):
            _add_with_ancestors(out, above, individual, cls)
    seeds = set().union(*(_seeds(out, axiom.body) for axiom in out.axioms))
    _apply_axioms(out, above, seeds, _quantified(out.axioms))
    return out


def refresh(closed: KnowledgeBase, kb: KnowledgeBase, edits) -> set:
    """Bring ``closed``, a closure of ``kb``, up to date with ``edits`` made to ``kb``.

    ``edits`` are ``kb``'s journal entries, ``(added, Statement)``, since
    ``closed`` last equalled ``materialize(kb)``; afterwards it equals it
    again.  They hold no declaration: one disarms the journal, and the
    closure must then be rebuilt.  ``closed`` shares ``kb``'s facts, so
    only the type edits are replayed into it; no fact is written to it.

    Returns what may have changed in ``closed``: the predicate of each fact
    edit, and ``(TYPE_PRED, class)`` for the class of each type edit and
    each class a re-derived individual gained or lost.  A query whose
    patterns read none of them (a type pattern reads its class's pair) has
    the same answers as before.

    This is delete-and-re-derive (Gupta, Mumick & Subrahmanian, SIGMOD 1993)
    limited to what an edit can reach.  An individual's inferred types
    depend only on its own types, its own facts whose predicate some axiom
    body quantifies over (``p SOME C``), and the types of those facts'
    objects.  So only a type edit or an edit of a quantified fact marks its
    subject; a rating's facts, for one, mark nothing.  The marked
    individuals and those with a path of quantified facts to one are
    re-derived: each is reset to its asserted types and their ancestors,
    then the axioms run over that set to a fixpoint.
    """
    quantified = _quantified(closed.axioms)
    touched, changed = set(), set()
    for added, (subject, predicate, obj) in edits:
        if predicate == TYPE_PRED:
            (closed.add_type if added else closed.remove_type)(subject, obj)
            changed.add((TYPE_PRED, obj))
            touched.add(subject)
        else:
            changed.add(predicate)
            if predicate in quantified:
                touched.add(subject)
    if not touched:
        return changed
    affected, frontier = set(touched), list(touched)
    while frontier:
        for stmt in closed.statements_to(frontier.pop()):
            if stmt.predicate in quantified and stmt.subject not in affected:
                affected.add(stmt.subject)
                frontier.append(stmt.subject)
    above = subclass_parents(closed.subclass_links)  # the closed links hold every ancestor directly
    before, candidates = {}, []
    for individual in affected:
        types = before[individual] = closed.types_of(individual)
        keep = {c for t in types if (individual, t) in kb.type_assertions for c in (t, *above.get(t, ()))}
        for cls in types - keep:
            closed.remove_type(individual, cls)
        for cls in keep - types:
            closed.add_type(individual, cls)
        if keep or closed.statements_about(individual):  # an individual with no edge left gains nothing
            candidates.append(individual)
    _apply_axioms(closed, above, candidates, quantified)
    changed.update((TYPE_PRED, cls) for i, types in before.items() for cls in types ^ closed.types_of(i))
    return changed


# --------------------------------------------------------------------------
# Consistency


@dataclass(frozen=True)
class DisjointnessViolation:
    individual: Iri
    first: Iri
    second: Iri


@dataclass(frozen=True)
class OntocleanViolation:
    child: Iri
    parent: Iri
    flag: str


@dataclass
class ConsistencyReport:
    """Findings; all three lists empty means the kb is consistent."""

    disjointness_violations: list = field(default_factory=list)
    unsatisfiable_classes: list = field(default_factory=list)
    ontoclean_violations: list = field(default_factory=list)

    @property
    def is_consistent(self) -> bool:
        return not (
            self.disjointness_violations
            or self.unsatisfiable_classes
            or self.ontoclean_violations
        )


def _declarations(kb: KnowledgeBase) -> KnowledgeBase:
    """A knowledge base holding copies of ``kb``'s declarations and no individual.

    A fresh instance made here meets none of ``kb``'s facts or types, so its
    closure holds exactly what its own types and facts imply.
    """
    return KnowledgeBase(dict(kb.prefixes), set(kb.class_decls), dict(kb.property_decls),
                         set(kb.subclass_links), set(kb.disjoint_pairs), dict(kb.axioms),
                         dict(kb.annotations))


def check_consistency(kb: KnowledgeBase) -> ConsistencyReport:
    """Disjointness violations and unsatisfiable classes over the materialized kb.

    An individual violates disjointness when its asserted or inferred types
    hold both classes of a pair.  A class is unsatisfiable when a fresh
    instance of it would (Baader et al., *The Description Logic Handbook*,
    2003, ch. 2): each class is given one, named by the class itself, in a
    knowledge base holding ``kb``'s declarations only, and one
    ``materialize`` of that gives every instance's types.
    """
    m = materialize(kb)
    report = ConsistencyReport()
    pairs = sorted(m.disjoint_pairs, key=lambda p: (term_sort_key(p[0]), term_sort_key(p[1])))
    for individual in sorted(m.individuals(), key=term_sort_key):
        types = m.types_of(individual)
        for a, b in pairs:
            if a in types and b in types:
                report.disjointness_violations.append(DisjointnessViolation(individual, a, b))
    fresh = _declarations(kb)
    for cls in kb.class_decls:
        fresh.add_type(cls, cls)
    fresh = materialize(fresh)
    for cls in sorted(kb.class_decls, key=term_sort_key):
        types = fresh.types_of(cls)
        if any(a in types and b in types for a, b in pairs):
            report.unsatisfiable_classes.append(cls)
    return report


# --------------------------------------------------------------------------
# OntoClean

# parent flag -> the flag the child must then carry (same flag in every case)
_PROPAGATED_FLAGS = ("~R", "~U", "+I", "+U")


def check_ontoclean(kb: KnowledgeBase) -> list:
    """Metaproperty violations over the kb's direct subclass links.

    For each link ``p SUBCLASSOF q``: if q carries ~R, ~U, +I or +U then p
    must carry the same flag; each missing flag is one violation
    ``(child, parent, flag)``.  Every class appearing in a link must have an
    annotation in ``kb.annotations`` (possibly with all dimensions unset),
    otherwise :class:`UnannotatedClassError` is raised.
    """
    links = sorted(kb.subclass_links, key=lambda l: (term_sort_key(l[0]), term_sort_key(l[1])))
    for child, parent in links:
        for cls in (child, parent):
            if cls not in kb.annotations:
                raise UnannotatedClassError(cls)
    violations = []
    for child, parent in links:
        child_ann = kb.annotations[child]
        parent_ann = kb.annotations[parent]
        child_flags = set(child_ann.flags())
        for flag in _PROPAGATED_FLAGS:
            if flag in parent_ann.flags() and flag not in child_flags:
                violations.append(OntocleanViolation(child, parent, flag))
    return violations


# --------------------------------------------------------------------------
# Rendering and axiom self-checks


def render_report(report: ConsistencyReport) -> str:
    """One ``VIOLATION <kind> <subject> [<detail>...]`` line per finding."""
    lines = []
    for v in report.disjointness_violations:
        lines.append(f"VIOLATION disjointness {v.individual} {v.first} {v.second}")
    for cls in report.unsatisfiable_classes:
        lines.append(f"VIOLATION unsatisfiable {cls}")
    for v in report.ontoclean_violations:
        lines.append(f"VIOLATION ontoclean {v.child} {v.parent} {v.flag}")
    if not lines:
        return "clean\n"
    return "\n".join(lines) + "\n"


def axiom_inference_check(kb: KnowledgeBase, axiom: ClassAxiom) -> bool:
    """True when a fresh witness satisfying the body is inferred the head type.

    The witness lives in a knowledge base holding ``kb``'s declarations only:
    it is typed per the body's named conjuncts and given one fresh filler per
    existential, and passes when materialization assigns it the head that
    the body did not already assert.
    """
    scratch = _declarations(kb)
    witness = Iri("soa-hitlcps", "axiom_check_witness")

    def assert_body(expr: ClassExpr, subject: Iri, counter=[0]) -> None:
        if isinstance(expr, NamedClass):
            scratch.add_type(subject, expr.iri)
        elif isinstance(expr, SomeValues):
            counter[0] += 1
            filler = Iri("soa-hitlcps", f"axiom_check_filler_{counter[0]}")
            scratch.add_type(filler, expr.filler)
            scratch.add_statement(subject, expr.prop, filler)
        else:
            for part in expr.parts:
                assert_body(part, subject)

    assert_body(axiom.body, witness)
    if (witness, axiom.head) in scratch.type_assertions:
        return False  # head held before inference: not a test of the axiom
    return (witness, axiom.head) in materialize(scratch).type_assertions
