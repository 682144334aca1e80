"""Typed in-memory knowledge graph with a line-oriented text format.

A knowledge base holds class and property declarations, a subclass DAG,
disjointness pairs, restricted class axioms, OntoClean metaproperty
annotations, type assertions and plain (subject, predicate, object) facts.
Each table holds what it means: a disjointness is stored once, as its pair
in ``term_sort_key`` order, and the axioms are a set that keeps document
order (a dict from each axiom to None).  Equality and ``copy`` are derived
from the dataclass's field list, so a table added to the class is compared
and copied with the others.

Documents are UTF-8 text, one directive per line, ``#`` starts a comment::

    @prefix <name>: <expansion>
    CLASS <Name> [SUBCLASSOF <Parent>]
    PROPERTY <name> DOMAIN <Class> RANGE <Class>
    DISJOINT <ClassA> <ClassB>
    AXIOM ( <ClassExpr> ) SUBCLASSOF <Class>
    INDIVIDUAL <name> TYPE <Class>
    FACT <subject> <predicate> <object>
    META <Class> [<flag> ...]        flags: +R ~R +I -I +U ~U -U

A ``ClassExpr`` is a named class, ``( <expr> AND <expr> ... )`` or
``( <property> SOME <Class> )``.  Names are written ``local`` (resolved
against the built-in prefix) or ``prefix:local``; unknown prefixes are an
error, never a silent default.  Objects of FACT lines may also be literals:
``"a string"``, an integer, or a decimal such as ``4.50``.  ``parse_name``,
``parse_integer`` and ``parse_decimal`` read these atoms for every text format.

Class names referenced by SUBCLASSOF, DISJOINT, PROPERTY domains/ranges and
INDIVIDUAL types are declared implicitly; properties must always be declared
before use in FACT or AXIOM lines.  Duplicate declarations are idempotent,
conflicting ones are errors.  Serialization is deterministic: equal knowledge
bases serialize to identical bytes, and ``parse_document(serialize(kb))``
reproduces ``kb`` exactly.

``parse_document`` reads each line once, into plain words: only a line that
holds a ``#`` is scanned for a comment, and only a line that holds a ``"``,
``(`` or ``)`` is split by a regex; ``str.split()`` splits the others, since
its whitespace is the regex's ``\\s`` on every code point.  A word's column is
computed only when a ``ParseError`` reports it, by the regex.  Once the
``@prefix`` lines have fixed the prefix table, each distinct word is read as
a name once per document; a word that fails is not kept, so it fails again
wherever it recurs.  FACT and INDIVIDUAL lines, nearly all of a registry,
are read by unpacking their four words.

Every graph write goes through ``KnowledgeBase`` methods (``add_type``,
``remove_type``, ``add_statement``, ``remove_statement``); nothing else adds
to or discards from ``statements`` or ``type_assertions``.  Those two sets
are the only source of truth.  Reads go through hash indexes from subject,
predicate and object to the statements holding them (a type assertion is
indexed as the statement ``individual TYPE_PRED class``).  The indexes are
derived data: built on the first read, kept current by the write methods
from then on, and copied bucket by bucket with the knowledge base.  One
helper, ``_index_add``, files a statement in all three, for the first build
and for every write alike.

A follower of the graph (such as the broker's closure) arms ``journal`` by
setting it to an empty list.  From then on each graph edit appends
``(added, Statement)`` to that list, a type as the statement the index
files, and the follower drains it to bring its derived data up to date.  A
declaration that succeeds disarms the journal (sets it to None); one that
raises leaves it as it was.  A follower that finds another list there (or
None) has been taken over or outdated and must rebuild.  Unarmed, as while
loading, the journal costs one attribute test per write.

``Iri`` and ``Statement`` are named tuples, so set and dict lookups hash
and compare them in C; ``Literal``, ``Var`` and ``Pattern`` stay separate
types that never equal them.  ``match`` serves a pattern by how many of its
positions are variables.  With none it tests one membership in the subject
bucket; with one it filters the smaller of the two constants' buckets by the
other constant and sorts the bare values.  Otherwise it reads the smallest
bucket of the pattern's constants, compares the other constants by position
and builds each binding straight from the variable positions.  No row is
unified.

The structure is single-writer: no internal locking is performed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from decimal import Decimal
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    CyclicSubclassError,
    DeclarationConflictError,
    ParseError,
    UnknownPrefixError,
)

DEFAULT_PREFIX = "soa-hitlcps"
DEFAULT_EXPANSION = "http://soa-hitlcps.org/ontology#"
# The prefix table of a new knowledge base, and of every name read outside a
# .kb document that the graph will hold.
BUILTIN_PREFIXES = MappingProxyType({DEFAULT_PREFIX: DEFAULT_EXPANSION})


class Iri(NamedTuple):
    """A prefixed name.  Equality and ordering are by (prefix, local)."""

    prefix: str
    local: str

    def __str__(self) -> str:
        if self.prefix == DEFAULT_PREFIX:
            return self.local
        return f"{self.prefix}:{self.local}"


def iri(local: str, prefix: str = DEFAULT_PREFIX) -> Iri:
    """Shorthand constructor for an Iri in the built-in namespace."""
    return Iri(prefix, local)


# Reserved predicate backing INDIVIDUAL ... TYPE ... assertions; written `a`
# in queries.  It is not part of any ontology's property declarations.
TYPE_PRED = Iri(DEFAULT_PREFIX, "type")


@dataclass(frozen=True)
class Literal:
    """A tagged literal value: kind is 'string', 'integer' or 'decimal'."""

    kind: str
    value: Union[str, int, Decimal]

    def __str__(self) -> str:
        if self.kind == "string":
            escaped = str(self.value).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if self.kind == "decimal":
            text = format(self.value, "f")
            return text if "." in text else text + ".0"
        return str(self.value)


def string(value: str) -> Literal:
    return Literal("string", value)


def integer(value: int) -> Literal:
    return Literal("integer", int(value))


def decimal(value) -> Literal:
    return Literal("decimal", Decimal(str(value)))


Term = Union[Iri, Literal]


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Iri, Literal, Var]


class Statement(NamedTuple):
    """One (subject, predicate, object) edge.  Subject/predicate are Iris."""

    subject: Iri
    predicate: Iri
    object: Term

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object}"


@dataclass(frozen=True)
class Pattern:
    """A statement template; any position may be a Var."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> list[str]:
        return [t.name for t in (self.subject, self.predicate, self.object) if isinstance(t, Var)]

    def substitute(self, env: dict) -> "Pattern":
        """This pattern with every variable that ``env`` binds replaced by its value."""

        def sub(term):
            return env.get(term.name, term) if isinstance(term, Var) else term

        return Pattern(sub(self.subject), sub(self.predicate), sub(self.object))

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object}"


# The lexical syntax of names and numbers, shared by every text format.
# A "." joins two runs of name characters; it never ends a name or stands twice.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*")
_INT_RE = re.compile(r"-?[0-9]+")
_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


def parse_name(text: str, prefixes=None, line: int = 1, column: int = 1) -> Iri:
    """``prefix:local`` (split on the first ``:``) or a bare ``local`` (built-in prefix) as an Iri.

    A prefix missing from ``prefixes`` is an :class:`UnknownPrefixError`; with
    no table, the reader of the name resolves it.  A local name outside
    ``_NAME_RE`` is a :class:`ParseError` at ``line`` and ``column``.
    """
    prefix, colon, local = text.partition(":")
    if not colon:
        prefix, local = DEFAULT_PREFIX, text
    elif prefixes is not None and prefix not in prefixes:
        raise UnknownPrefixError(prefix)
    if not _NAME_RE.fullmatch(local):
        raise ParseError(line, column, "a name")
    return Iri(prefix, local)


def parse_integer(text: str, line: int = 1, column: int = 1) -> int:
    """A .kb integer, ``-?[0-9]+``; anything else is a :class:`ParseError`."""
    if _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise ParseError(line, column, "an integer")


def parse_decimal(text: str, line: int = 1, column: int = 1) -> Decimal:
    """A .kb integer or decimal, ``-?[0-9]+`` or ``-?[0-9]+.[0-9]+``: always finite."""
    if not _NUMBER_RE.fullmatch(text):
        raise ParseError(line, column, "a decimal")
    return Decimal(text)


def parse_pair(text: str, line: int = 1, column: int = 1) -> tuple:
    """``key=value`` split on the first ``=`` as (key, value); an empty side is a :class:`ParseError`."""
    key, eq, value = text.partition("=")
    if not (key and eq and value):
        raise ParseError(line, column, "key=value")
    return key, value


def term_sort_key(term: PatternTerm):
    """Total deterministic order over Iris and literals (Iris first)."""
    if isinstance(term, Iri):
        return (0, term.prefix, term.local, "")
    if isinstance(term, Literal):
        return (1, term.kind, str(term.value), "")
    return (2, term.name, "", "")


# --------------------------------------------------------------------------
# Class expressions and axioms


@dataclass(frozen=True)
class NamedClass:
    iri: Iri


@dataclass(frozen=True)
class SomeValues:
    prop: Iri
    filler: Iri


@dataclass(frozen=True)
class Conjunction:
    parts: tuple


ClassExpr = Union[NamedClass, SomeValues, Conjunction]


@dataclass(frozen=True)
class ClassAxiom:
    """body SUBCLASSOF head, applied per-individual by the reasoner."""

    body: ClassExpr
    head: Iri


def render_class_expr(expr: ClassExpr) -> str:
    if isinstance(expr, NamedClass):
        return str(expr.iri)
    if isinstance(expr, SomeValues):
        return f"( {expr.prop} SOME {expr.filler} )"
    inner = " AND ".join(render_class_expr(p) for p in expr.parts)
    return f"( {inner} )"


def _axiom_line(axiom: ClassAxiom) -> str:
    body = render_class_expr(axiom.body)
    if isinstance(axiom.body, NamedClass):
        body = f"( {body} )"
    return f"AXIOM {body} SUBCLASSOF {axiom.head}"


# --------------------------------------------------------------------------
# OntoClean metaproperty annotations

# flag -> the MetaAnnotation dimension it sets
_FLAG_DIMENSIONS = {"+R": "rigidity", "~R": "rigidity", "+I": "identity", "-I": "identity",
                    "+U": "unity", "~U": "unity", "-U": "unity"}
ALL_FLAGS = tuple(_FLAG_DIMENSIONS)


@dataclass(frozen=True)
class MetaAnnotation:
    """OntoClean flags for one class; a None dimension is explicitly unset."""

    cls: Iri
    rigidity: Optional[str] = None
    identity: Optional[str] = None
    unity: Optional[str] = None

    def flags(self) -> tuple[str, ...]:
        return tuple(f for f in (self.rigidity, self.identity, self.unity) if f)


def annotation_from_flags(cls: Iri, flags: Iterable[str]) -> MetaAnnotation:
    chosen: dict = {}
    for flag in flags:
        dimension = _FLAG_DIMENSIONS.get(flag)
        if dimension is None:
            raise DeclarationConflictError(f"unknown metaproperty flag {flag!r} for {cls}")
        if chosen.setdefault(dimension, flag) != flag:
            raise DeclarationConflictError(f"conflicting {dimension} flags for {cls}")
    return MetaAnnotation(cls, **chosen)


# --------------------------------------------------------------------------
# The knowledge base


@dataclass
class KnowledgeBase:
    """Mutable store for one ontology plus its instance data."""

    prefixes: dict = field(default_factory=lambda: dict(BUILTIN_PREFIXES))
    class_decls: set = field(default_factory=set)
    property_decls: dict = field(default_factory=dict)  # Iri -> (domain, range)
    subclass_links: set = field(default_factory=set)  # {(child, parent)}
    disjoint_pairs: set = field(default_factory=set)  # {(a, b)}, a before b in term_sort_key order
    axioms: dict = field(default_factory=dict)  # ClassAxiom -> None: a set in document order
    annotations: dict = field(default_factory=dict)  # Iri -> MetaAnnotation
    type_assertions: set = field(default_factory=set)  # {(individual, class)}
    statements: set = field(default_factory=set)
    # (by subject, by predicate, by object): term -> set of Statements; None
    # until the first read builds it
    _index: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # (added, Statement) of each graph edit since the follower that armed it
    # (set it to a list) last drained it; None while unarmed.  Never copied.
    journal: Optional[list] = field(default=None, init=False, repr=False, compare=False)
    # each child's parents in subclass_links, for the cycle check: built on
    # its first use and kept by add_subclass from then on.  Never copied.
    _parents: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    # -- declarations: each that succeeds disarms the journal --------------

    def add_prefix(self, name: str, expansion: str) -> None:
        existing = self.prefixes.get(name)
        if existing is not None and existing != expansion:
            raise DeclarationConflictError(f"prefix {name!r} redeclared with a different expansion")
        self.prefixes[name] = expansion
        self.journal = None

    def add_class(self, cls: Iri) -> None:
        self.class_decls.add(cls)
        self.journal = None

    def add_subclass(self, child: Iri, parent: Iri) -> None:
        if (child, parent) not in self.subclass_links:
            path = self._subclass_path(parent, child)
            if path is not None:
                raise CyclicSubclassError(path + [parent])
            self.subclass_links.add((child, parent))
            self._parents.setdefault(child, []).append(parent)
        self.class_decls.add(child)
        self.class_decls.add(parent)
        self.journal = None

    def add_property(self, prop: Iri, domain: Iri, range_: Iri) -> None:
        existing = self.property_decls.get(prop)
        if existing is not None and existing != (domain, range_):
            raise DeclarationConflictError(f"property {prop} redeclared with a different signature")
        self.property_decls[prop] = (domain, range_)
        self.class_decls.add(domain)
        self.class_decls.add(range_)
        self.journal = None

    def close_subclass_links(self) -> dict:
        """Link each class to every ancestor directly, which makes no cycle; returns :func:`ancestors` of the links."""
        above = ancestors(self.subclass_links)
        self.subclass_links.update((child, parent) for child in above for parent in above[child])
        self._parents = self.journal = None
        return above

    def add_disjoint(self, a: Iri, b: Iri) -> None:
        self.class_decls.add(a)
        self.class_decls.add(b)
        self.disjoint_pairs.add(tuple(sorted((a, b), key=term_sort_key)))
        self.journal = None

    def add_axiom(self, axiom: ClassAxiom) -> None:
        self._check_expr_declared(axiom.body)
        self.class_decls.add(axiom.head)
        self.axioms.setdefault(axiom)
        self.journal = None

    def add_annotation(self, ann: MetaAnnotation) -> None:
        existing = self.annotations.get(ann.cls)
        if existing is not None and existing != ann:
            raise DeclarationConflictError(f"conflicting META annotations for {ann.cls}")
        self.class_decls.add(ann.cls)
        self.annotations[ann.cls] = ann
        self.journal = None

    def _check_expr_declared(self, expr: ClassExpr) -> None:
        if isinstance(expr, NamedClass):
            if expr.iri not in self.class_decls:
                raise DeclarationConflictError(f"axiom references undeclared class {expr.iri}")
        elif isinstance(expr, SomeValues):
            if expr.prop not in self.property_decls:
                raise DeclarationConflictError(f"axiom references undeclared property {expr.prop}")
            if expr.filler not in self.class_decls:
                raise DeclarationConflictError(f"axiom references undeclared class {expr.filler}")
        else:
            for part in expr.parts:
                self._check_expr_declared(part)

    # -- assertions --------------------------------------------------------

    def add_type(self, individual: Iri, cls: Iri) -> None:
        self.class_decls.add(cls)
        self.type_assertions.add((individual, cls))
        if self._index is not None or self.journal is not None:
            self._edit(True, Statement(individual, TYPE_PRED, cls))

    def remove_type(self, individual: Iri, cls: Iri) -> None:
        self.type_assertions.discard((individual, cls))
        if self._index is not None or self.journal is not None:
            self._edit(False, Statement(individual, TYPE_PRED, cls))

    def check_statement(self, subject: Term, predicate: Iri, obj: Term) -> None:
        """Raise unless ``add_statement`` accepts this fact; a subject must be an Iri to parse back."""
        if not isinstance(subject, Iri):
            raise DeclarationConflictError(f"fact subject {subject} is not an Iri")
        if predicate == TYPE_PRED:
            if not isinstance(obj, Iri):
                raise DeclarationConflictError("type assertions require a class Iri object")
        elif predicate not in self.property_decls:
            raise DeclarationConflictError(f"fact uses undeclared property {predicate}")

    def add_statement(self, subject: Iri, predicate: Iri, obj: Term) -> None:
        self.check_statement(subject, predicate, obj)
        if predicate == TYPE_PRED:
            self.add_type(subject, obj)
            return
        stmt = Statement(subject, predicate, obj)
        self.statements.add(stmt)
        if self._index is not None or self.journal is not None:
            self._edit(True, stmt)

    def remove_statement(self, subject: Iri, predicate: Iri, obj: Term) -> None:
        if predicate == TYPE_PRED:
            self.remove_type(subject, obj)
            return
        stmt = Statement(subject, predicate, obj)
        self.statements.discard(stmt)
        if self._index is not None or self.journal is not None:
            self._edit(False, stmt)

    def _edit(self, added: bool, stmt: Statement) -> None:
        """File one graph edit in the index, once built, and in the journal, while armed."""
        if self._index is not None:
            (_index_add if added else _index_discard)(self._index, stmt)
        if self.journal is not None:
            self.journal.append((added, stmt))
            if len(self.journal) > JOURNAL_LIMIT:
                # its follower stopped reading: disarm, so that the journal stops
                # growing and the follower rebuilds on its next read
                self.journal = None

    # -- views -------------------------------------------------------------

    def triples(self) -> Iterator[Statement]:
        """All edges, type assertions included (predicate ``TYPE_PRED``)."""
        for individual, cls in self.type_assertions:
            yield Statement(individual, TYPE_PRED, cls)
        yield from self.statements

    def statements_about(self, subject: Iri):
        """Every edge with this subject, type assertions included.

        The result is the index's own bucket: read it, never mutate it.
        """
        return self._indexes()[0].get(subject, _NO_STATEMENTS)

    def statements_to(self, obj: Term):
        """Every edge with this object, as :meth:`statements_about` (read only)."""
        return self._indexes()[2].get(obj, _NO_STATEMENTS)

    def statements_with(self, predicate: Iri):
        """Every edge with this predicate, as :meth:`statements_about` (read only)."""
        return self._indexes()[1].get(predicate, _NO_STATEMENTS)

    def types_of(self, individual: Iri) -> set:
        return {s.object for s in self.statements_about(individual) if s.predicate == TYPE_PRED}

    def individuals(self) -> set:
        return set(self._indexes()[0])

    def match(self, pattern) -> list[dict]:
        """All binding maps under which the substituted triple is present.

        ``pattern`` is a :class:`Pattern` or a tuple of its three terms.
        Result order is deterministic: lexicographic by the bound values in
        variable-name order.  A fully-constant pattern yields one empty map
        when the triple is present; a one-variable pattern sorts its values
        only when it finds more than one.
        """
        terms = pattern if isinstance(pattern, tuple) else (pattern.subject, pattern.predicate, pattern.object)
        index = self._index or self._indexes()
        s, p, o = terms
        shape = (isinstance(s, Var), isinstance(p, Var), isinstance(o, Var))
        if shape == _NO_VARIABLE:
            return [{}] if terms in index[0].get(s, _NO_STATEMENTS) else []
        positions = _ONE_VARIABLE.get(shape)
        if positions is not None:
            # Every match a discover makes has one variable or none: filter
            # the smaller constant's bucket by the other constant and sort the
            # bare values, which differ as their statements do.
            v, i, j = positions
            rows, other = index[i].get(terms[i]), index[j].get(terms[j])
            if rows is None or other is None:
                return []
            if len(other) < len(rows):
                rows, i, j = other, j, i
            term, name = terms[j], terms[v].name
            values = [stmt[v] for stmt in rows if stmt[j] == term]
            if len(values) > 1:
                values.sort(key=term_sort_key)
            return [{name: value} for value in values]
        # Two or three variable positions: at most one constant, whose bucket holds the rows.
        rows, first, repeats = None, {}, []
        for i, term in enumerate(terms):
            if isinstance(term, Var):
                j = first.setdefault(term.name, i)
                if j != i:
                    repeats.append((i, j))
            else:
                rows = index[i].get(term, _NO_STATEMENTS)
        if rows is None:
            rows = chain.from_iterable(index[0].values())
        for i, j in repeats:
            rows = [stmt for stmt in rows if stmt[i] == stmt[j]]
        # Distinct statements bind their variables differently, so no row
        # needs a dedup.
        order = [first[name] for name in sorted(first)]
        rows = sorted(rows, key=lambda stmt: [term_sort_key(stmt[i]) for i in order])
        return [{name: stmt[i] for name, i in first.items()} for stmt in rows]

    def estimate(self, terms: tuple) -> int:
        """An upper bound on the rows ``match(terms)`` returns, read from the indexes alone.

        It is the smallest index bucket among the constants of ``terms``
        (0 when one is absent), or every triple when all three are variables.
        """
        index = self._indexes()
        sizes = [len(index[i].get(term, _NO_STATEMENTS)) for i, term in enumerate(terms)
                 if not isinstance(term, Var)]
        return min(sizes) if sizes else len(self.type_assertions) + len(self.statements)

    def _indexes(self) -> tuple:
        if self._index is None:
            index = ({}, {}, {})
            for stmt in self.triples():
                _index_add(index, stmt)
            self._index = index
        return self._index

    # -- bookkeeping -------------------------------------------------------

    def copy(self) -> "KnowledgeBase":
        """A copy of every table and of the index; the journal is not copied."""
        out = KnowledgeBase(*[table.copy() for table in _tables(self)])
        if self._index is not None:
            out._index = tuple(
                {term: set(bucket) for term, bucket in by_term.items()} for by_term in self._index
            )
        return out

    def _subclass_path(self, start: Iri, goal: Iri) -> Optional[list]:
        """A subclass path start -> ... -> goal, or None when there is none.

        The walk is depth first and expands each class's parents in
        ``term_sort_key`` order, so the path a cycle error reports is fixed.
        """
        if self._parents is None:
            self._parents = subclass_parents(self.subclass_links)
        if start == goal:
            return [start]
        parents = self._parents
        stack = [(start, [start])]
        visited = set()
        while stack:
            node, path = stack.pop()
            for parent in sorted(parents.get(node, ()), key=term_sort_key):
                if parent not in visited:
                    if parent == goal:
                        return path + [parent]
                    visited.add(parent)
                    stack.append((parent, path + [parent]))
        return None


def subclass_parents(links) -> dict:
    """Each child's parents, in no order, of the ``(child, parent)`` pairs in ``links``."""
    parents: dict = {}
    for child, parent in links:
        parents.setdefault(child, []).append(parent)
    return parents


def ancestors(links) -> dict:
    """Each child's transitive ancestors, of the ``(child, parent)`` pairs in ``links``: one walk each."""
    parents = subclass_parents(links)
    closed: dict = {}
    for cls in parents:
        seen: set = set()
        frontier = [cls]
        while frontier:
            for parent in parents.get(frontier.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        closed[cls] = seen
    return closed


# The tables of a knowledge base, its init fields in order: copy() copies each.
_tables = attrgetter(*(f.name for f in fields(KnowledgeBase) if f.init))


_NO_STATEMENTS: frozenset = frozenset()
# Which positions of a pattern are variables, for the two shapes ``match``
# serves apart; a one-variable shape maps to (variable, constant, constant).
_NO_VARIABLE = (False, False, False)
_ONE_VARIABLE = {(True, False, False): (0, 1, 2), (False, True, False): (1, 0, 2), (False, False, True): (2, 0, 1)}
# Writes a journal holds at most; past it the knowledge base disarms it.
JOURNAL_LIMIT = 4096


def _index_add(index: tuple, stmt: Statement) -> None:
    """File ``stmt`` in its subject, predicate and object buckets."""
    by_subject, by_predicate, by_object = index
    subject, predicate, obj = stmt
    bucket = by_subject.get(subject)
    if bucket is None:
        by_subject[subject] = {stmt}
    else:
        bucket.add(stmt)
    bucket = by_predicate.get(predicate)
    if bucket is None:
        by_predicate[predicate] = {stmt}
    else:
        bucket.add(stmt)
    bucket = by_object.get(obj)
    if bucket is None:
        by_object[obj] = {stmt}
    else:
        bucket.add(stmt)


def _index_discard(index: tuple, stmt: Statement) -> None:
    """Take ``stmt`` out of its buckets, dropping a bucket it leaves empty."""
    by_subject, by_predicate, by_object = index
    subject, predicate, obj = stmt
    bucket = by_subject.get(subject)
    if bucket is not None:
        bucket.discard(stmt)
        if not bucket:
            del by_subject[subject]
    bucket = by_predicate.get(predicate)
    if bucket is not None:
        bucket.discard(stmt)
        if not bucket:
            del by_predicate[predicate]
    bucket = by_object.get(obj)
    if bucket is not None:
        bucket.discard(stmt)
        if not bucket:
            del by_object[obj]


# --------------------------------------------------------------------------
# Parsing


def decode_document(data: bytes) -> str:
    """UTF-8 text with universal newlines, as ``Path.read_text`` gives it.

    A byte sequence that is not UTF-8 is a :class:`ParseError` at its line
    and byte column.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        column = err.start - data.rfind(b"\n", 0, err.start)
        raise ParseError(line, column, "UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_document(path) -> str:
    """The text of a UTF-8 file (see :func:`decode_document`)."""
    return decode_document(Path(path).read_bytes())


_OPEN_STRING = r'"(?:[^"\\]|\\.)*'
_STRING = _OPEN_STRING + '"'
_STRING_RE = re.compile(_STRING)
_WORD_RE = re.compile(_STRING + r"|\S+")
# An unclosed string is one token too, so that it is reported, not skipped.
_TOKEN_RE = re.compile(_STRING + r'?|[()]|[^\s()"]+')
# Up to a comment: a "#" outside strings that starts the line or follows
# whitespace, so tokens such as namespace expansions ending in "#" survive.
_COMMENT_RE = re.compile(r'(?:' + _OPEN_STRING + r'(?:"|$)|[^"])*?(?<!\S)#')


def _strip_comment(raw: str) -> str:
    """``raw`` up to its comment; only a line that holds a ``#`` is scanned for one."""
    if "#" not in raw:
        return raw
    comment = _COMMENT_RE.match(raw)
    return raw[:comment.end() - 1] if comment else raw


def _kb_words(text: str) -> list:
    """The tokens of a comment-free .kb line, as ``_TOKEN_RE.findall(text)`` gives them."""
    # Only a quote or a parenthesis makes a token that is not a run of
    # non-space, and str.split() and the regex's \s agree on every code point.
    return _TOKEN_RE.findall(text) if '"' in text or "(" in text or ")" in text else text.split()


def line_words(text: str) -> list:
    """The words of a line: a closed double-quoted string, as in .kb, or a run of non-space."""
    # as _kb_words: a line with no quote needs no regex
    return _WORD_RE.findall(text) if '"' in text else text.split()


def content_lines(text: str) -> Iterator[tuple]:
    """(line number, words) for each line with words left once its comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = line_words(_strip_comment(raw))
        if words:
            yield lineno, words


def _line_positions(lineno: int, text: str) -> list:
    """The (line, column) of each word of a comment-free .kb line."""
    return [(lineno, m.start() + 1) for m in _TOKEN_RE.finditer(text)]


class _Cursor:
    """Cursor over a list of words with positioned errors.

    ``positions()`` gives the (line, column) of every word; it runs only to
    report an error.  Running out of words is an error just past the last
    word (line 1, column 1 when there is none).
    """

    def __init__(self, words: list, positions):
        self.words = words
        self.positions = positions
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.words[self.pos] if self.pos < len(self.words) else None

    def next(self, expected: str) -> str:
        word = self.peek()
        if word is None:
            raise self.error(expected, self.pos)
        self.pos += 1
        return word

    def expect(self, word: str) -> str:
        if self.next(word) != word:
            raise self.error(word)
        return word

    def done(self, expected: str) -> None:
        if self.pos < len(self.words):
            raise self.error(expected, self.pos)

    def error(self, expected: str, i: Optional[int] = None) -> ParseError:
        """A ParseError at word ``i``, by default the word last read."""
        if i is None:
            i = self.pos - 1
        if i < len(self.words):
            line, column = self.positions()[i]
        elif self.words:
            line, column = self.positions()[-1]
            column += len(self.words[-1])
        else:
            line, column = 1, 1
        return ParseError(line, column, expected)


def _parse_term(text: str, prefixes, line: int = 1, column: int = 1) -> Term:
    """A FACT object: a string literal, a number (see :func:`parse_decimal`) or a name."""
    if text.startswith('"'):
        if not _STRING_RE.fullmatch(text):
            raise ParseError(line, column, "a string literal closed by a quote")
        body = text[1:-1]
        value = body.replace('\\"', '"').replace("\\\\", "\\")
        return Literal("string", value)
    if _NUMBER_RE.fullmatch(text):
        if "." in text:
            return Literal("decimal", Decimal(text))
        return Literal("integer", parse_integer(text, line, column))
    return parse_name(text, prefixes, line, column)


# The deepest parenthesis nesting a class expression may have: the readers,
# the reasoner and the writer all recurse once per level.
MAX_CLASS_EXPR_DEPTH = 100


def _parse_class_expr(reader: _Cursor, name, depth: int = 1) -> ClassExpr:
    """``( <expr> )`` from ``reader``, its ``(`` at nesting ``depth``; ``name(reader, i)`` reads word ``i`` as a name."""
    reader.expect("(")
    if depth > MAX_CLASS_EXPR_DEPTH:
        raise reader.error(f"at most {MAX_CLASS_EXPR_DEPTH} nested parentheses")
    first = reader.pos
    if reader.next("a class expression") == "(":
        reader.pos -= 1
        operand: ClassExpr = _parse_class_expr(reader, name, depth + 1)
    else:
        if reader.peek() == "SOME":
            reader.expect("SOME")
            reader.next("a class name")
            filler = name(reader, reader.pos - 1)
            reader.expect(")")
            return SomeValues(name(reader, first), filler)
        operand = NamedClass(name(reader, first))
    parts = [operand]
    while True:
        word = reader.next("AND or )")
        if word == ")":
            break
        if word != "AND":
            raise reader.error("AND or )")
        if reader.next("a class expression") == "(":
            reader.pos -= 1
            parts.append(_parse_class_expr(reader, name, depth + 1))
        else:
            parts.append(NamedClass(name(reader, reader.pos - 1)))
    if len(parts) == 1:
        return parts[0]
    return Conjunction(tuple(parts))


def parse_document(text: str) -> KnowledgeBase:
    """Parse a document into a fresh kb."""
    kb = KnowledgeBase()
    prefix_lines, declarations, rest = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = _strip_comment(raw)
        words = _kb_words(raw)
        if words:
            directive = words[0]
            group = (prefix_lines if directive == "@prefix"
                     else declarations if directive in ("CLASS", "PROPERTY") else rest)
            group.append((lineno, raw, words))

    # Prefix table first: prefixed names may appear on any later line.
    for lineno, raw, words in prefix_lines:
        reader = _Cursor(words, partial(_line_positions, lineno, raw))
        reader.expect("@prefix")
        name = reader.next("a prefix name")
        if not name.endswith(":") or len(name) < 2:
            raise reader.error("a prefix name ending in ':'")
        expansion = reader.next("a prefix expansion")
        reader.done("end of line")
        kb.add_prefix(name[:-1], expansion)

    # The prefix table is fixed from here on, so each distinct word is read as
    # a name once.  A word that fails is never stored: it fails again, at its
    # own position, wherever it recurs.
    prefixes = kb.prefixes
    names: dict = {}     # word -> Iri
    literals: dict = {}  # FACT object word -> Literal

    def resolve(word: str, positions, i: int) -> Iri:
        iri = names.get(word)
        if iri is None:
            try:
                iri = parse_name(word, prefixes)
            except ParseError as err:
                raise ParseError(*positions()[i], err.expected) from None
            names[word] = iri
        return iri

    def name(reader: _Cursor, i: int) -> Iri:
        return resolve(reader.words[i], reader.positions, i)

    def next_name(reader: _Cursor, expected: str) -> Iri:
        reader.next(expected)
        return name(reader, reader.pos - 1)

    def fact_object(word: str, positions) -> Term:
        try:
            obj = _parse_term(word, prefixes)
        except ParseError as err:
            raise ParseError(*positions()[3], err.expected) from None
        (names if isinstance(obj, Iri) else literals)[word] = obj
        return obj

    # Declarations next so facts and axioms can reference them in any order.
    for lineno, raw, words in declarations:
        reader = _Cursor(words, partial(_line_positions, lineno, raw))
        if words[0] == "CLASS":
            reader.expect("CLASS")
            cls = next_name(reader, "a class name")
            if reader.peek() is not None:
                reader.expect("SUBCLASSOF")
                parent = next_name(reader, "a class name")
                reader.done("end of line")
                kb.add_subclass(cls, parent)
            else:
                kb.add_class(cls)
        else:
            reader.expect("PROPERTY")
            prop = next_name(reader, "a property name")
            reader.expect("DOMAIN")
            domain = next_name(reader, "a class name")
            reader.expect("RANGE")
            range_ = next_name(reader, "a class name")
            reader.done("end of line")
            kb.add_property(prop, domain, range_)

    # Everything else in document order.  FACT and INDIVIDUAL lines, nearly
    # all of a registry, are read by unpacking their four words.  Any other
    # word count is an error, which the cursor reports at its position.
    for lineno, raw, words in rest:
        directive = words[0]
        if len(words) == 4 and directive == "FACT":
            _, subject, predicate, obj = words
            positions = partial(_line_positions, lineno, raw)
            subject = names.get(subject) or resolve(subject, positions, 1)
            predicate = names.get(predicate) or resolve(predicate, positions, 2)
            obj = names.get(obj) or literals.get(obj) or fact_object(obj, positions)
            try:
                kb.add_statement(subject, predicate, obj)
            except DeclarationConflictError as exc:
                raise ParseError(*positions()[0], str(exc))
            continue
        if len(words) == 4 and directive == "INDIVIDUAL":
            _, ind, keyword, cls = words
            positions = partial(_line_positions, lineno, raw)
            ind = names.get(ind) or resolve(ind, positions, 1)
            if keyword != "TYPE":
                raise ParseError(*positions()[2], "TYPE")
            kb.add_type(ind, names.get(cls) or resolve(cls, positions, 3))
            continue
        reader = _Cursor(words, partial(_line_positions, lineno, raw))
        if directive == "DISJOINT":
            reader.expect("DISJOINT")
            a = next_name(reader, "a class name")
            b = next_name(reader, "a class name")
            reader.done("end of line")
            kb.add_disjoint(a, b)
        elif directive == "AXIOM":
            reader.expect("AXIOM")
            body = _parse_class_expr(reader, name)
            reader.expect("SUBCLASSOF")
            head = next_name(reader, "a class name")
            reader.done("end of line")
            try:
                kb.add_axiom(ClassAxiom(body, head))
            except DeclarationConflictError as exc:
                raise reader.error(str(exc), 0)
        elif directive == "INDIVIDUAL":
            reader.expect("INDIVIDUAL")
            next_name(reader, "an individual name")
            reader.expect("TYPE")
            next_name(reader, "a class name")
            reader.done("end of line")
        elif directive == "FACT":
            reader.expect("FACT")
            next_name(reader, "a subject name")
            next_name(reader, "a predicate name")
            fact_object(reader.next("an object term"), reader.positions)
            reader.done("end of line")
        elif directive == "META":
            reader.expect("META")
            cls = next_name(reader, "a class name")
            flags = []
            while reader.peek() is not None:
                flag = reader.next("a metaproperty flag")
                if flag not in ALL_FLAGS:
                    raise reader.error("one of " + " ".join(ALL_FLAGS))
                flags.append(flag)
            kb.add_annotation(annotation_from_flags(cls, flags))
        else:
            raise reader.error("a directive (@prefix, CLASS, PROPERTY, DISJOINT, AXIOM, INDIVIDUAL, FACT, META)", 0)
    return kb


# --------------------------------------------------------------------------
# Serialization


def serialize(kb: KnowledgeBase) -> str:
    """Deterministic text form; sections and lines are sorted."""
    lines: list[str] = []
    for name in sorted(kb.prefixes):
        lines.append(f"@prefix {name}: {kb.prefixes[name]}")
    with_parents = {child for child, _ in kb.subclass_links}
    class_lines = []
    for cls in kb.class_decls:
        if cls not in with_parents:
            class_lines.append((term_sort_key(cls), ("",), f"CLASS {cls}"))
    for child, parent in kb.subclass_links:
        class_lines.append((term_sort_key(child), term_sort_key(parent), f"CLASS {child} SUBCLASSOF {parent}"))
    lines.extend(text for _, _, text in sorted(class_lines))
    for prop in sorted(kb.property_decls, key=term_sort_key):
        domain, range_ = kb.property_decls[prop]
        lines.append(f"PROPERTY {prop} DOMAIN {domain} RANGE {range_}")
    for a, b in sorted(kb.disjoint_pairs, key=lambda p: (term_sort_key(p[0]), term_sort_key(p[1]))):
        lines.append(f"DISJOINT {a} {b}")
    lines.extend(sorted(_axiom_line(ax) for ax in kb.axioms))
    meta_lines = []
    for cls in sorted(kb.annotations, key=term_sort_key):
        flags = " ".join(kb.annotations[cls].flags())
        meta_lines.append(f"META {cls} {flags}".rstrip())
    lines.extend(meta_lines)
    for ind, cls in sorted(kb.type_assertions, key=lambda t: (term_sort_key(t[0]), term_sort_key(t[1]))):
        lines.append(f"INDIVIDUAL {ind} TYPE {cls}")
    facts = sorted(
        kb.statements,
        key=lambda s: (term_sort_key(s.subject), term_sort_key(s.predicate), term_sort_key(s.object)),
    )
    lines.extend(f"FACT {s.subject} {s.predicate} {s.object}" for s in facts)
    return "\n".join(lines) + "\n"
