"""Typed in-memory knowledge graph with a line-oriented text format.

A knowledge base holds class and property declarations, a subclass DAG,
disjointness pairs, restricted class axioms, OntoClean metaproperty
annotations, type assertions and plain (subject, predicate, object) facts.

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
``"a string"``, an integer, or a decimal such as ``4.50``.

Class names referenced by SUBCLASSOF, DISJOINT, PROPERTY domains/ranges and
INDIVIDUAL types are declared implicitly; properties must always be declared
before use in FACT or AXIOM lines.  Duplicate declarations are idempotent,
conflicting ones are errors.  Serialization is deterministic: equal knowledge
bases serialize to identical bytes, and ``parse_document(serialize(kb))``
reproduces ``kb`` exactly.

Every graph write goes through ``KnowledgeBase`` methods (``add_type``,
``remove_type``, ``add_statement``, ``remove_statement``); nothing else adds
to or discards from ``statements`` or ``type_assertions``.  Those two sets
are the only source of truth.  Reads go through hash indexes from subject,
predicate and object to the statements holding them (a type assertion is
indexed as the statement ``individual TYPE_PRED class``).  The indexes are
derived data: built on the first read, kept current by the write methods
from then on, and copied bucket by bucket with the knowledge base.  Every
write method, declarations included, also bumps the integer ``version``;
data derived elsewhere (such as the broker's closure) is keyed on the
knowledge base object and its version, and is stale once either differs.

The structure is single-writer: no internal locking is performed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    CyclicSubclassError,
    DeclarationConflictError,
    ParseError,
    UnknownPrefixError,
)

DEFAULT_PREFIX = "soa-hitlcps"
DEFAULT_EXPANSION = "http://soa-hitlcps.org/ontology#"


@dataclass(frozen=True, order=True)
class Iri:
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


@dataclass(frozen=True)
class Statement:
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


def parse_name(text: str, prefixes: Optional[dict] = None) -> Iri:
    """``prefix:local`` (split on the first ``:``) or a bare ``local`` as an Iri.

    A bare name is in the built-in namespace.  Given a prefix table, a prefix
    missing from it raises :class:`UnknownPrefixError`.  The local name is
    not checked; callers apply their own name rules.
    """
    prefix, colon, local = text.partition(":")
    if not colon:
        return Iri(DEFAULT_PREFIX, text)
    if prefixes is not None and prefix not in prefixes:
        raise UnknownPrefixError(prefix)
    return Iri(prefix, local)


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

RIGIDITY_FLAGS = ("+R", "~R")
IDENTITY_FLAGS = ("+I", "-I")
UNITY_FLAGS = ("+U", "~U", "-U")
ALL_FLAGS = RIGIDITY_FLAGS + IDENTITY_FLAGS + UNITY_FLAGS


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
    rigidity = identity = unity = None
    for flag in flags:
        if flag in RIGIDITY_FLAGS:
            if rigidity and rigidity != flag:
                raise DeclarationConflictError(f"conflicting rigidity flags for {cls}")
            rigidity = flag
        elif flag in IDENTITY_FLAGS:
            if identity and identity != flag:
                raise DeclarationConflictError(f"conflicting identity flags for {cls}")
            identity = flag
        elif flag in UNITY_FLAGS:
            if unity and unity != flag:
                raise DeclarationConflictError(f"conflicting unity flags for {cls}")
            unity = flag
        else:
            raise DeclarationConflictError(f"unknown metaproperty flag {flag!r} for {cls}")
    return MetaAnnotation(cls, rigidity, identity, unity)


# --------------------------------------------------------------------------
# The knowledge base


@dataclass
class KnowledgeBase:
    """Mutable store for one ontology plus its instance data."""

    prefixes: dict = field(default_factory=lambda: {DEFAULT_PREFIX: DEFAULT_EXPANSION})
    class_decls: set = field(default_factory=set)
    property_decls: dict = field(default_factory=dict)  # Iri -> (domain, range)
    subclass_links: set = field(default_factory=set)  # {(child, parent)}
    disjoint_pairs: set = field(default_factory=set)  # symmetric-closed
    axioms: list = field(default_factory=list)
    annotations: dict = field(default_factory=dict)  # Iri -> MetaAnnotation
    type_assertions: set = field(default_factory=set)  # {(individual, class)}
    statements: set = field(default_factory=set)
    # (by subject, by predicate, by object): term -> set of Statements; None
    # until the first read builds it
    _index: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # bumped by every write method: the key for data derived from the graph
    version: int = field(default=0, init=False, repr=False, compare=False)

    # -- declarations ------------------------------------------------------

    def add_prefix(self, name: str, expansion: str) -> None:
        self.version += 1
        existing = self.prefixes.get(name)
        if existing is not None and existing != expansion:
            raise DeclarationConflictError(f"prefix {name!r} redeclared with a different expansion")
        self.prefixes[name] = expansion

    def add_class(self, cls: Iri) -> None:
        self.version += 1
        self.class_decls.add(cls)

    def add_subclass(self, child: Iri, parent: Iri) -> None:
        self.version += 1
        self.class_decls.add(child)
        self.class_decls.add(parent)
        if (child, parent) in self.subclass_links:
            return
        if child == parent or self._reachable(parent, child):
            raise CyclicSubclassError(self._cycle_path(parent, child) + [parent])
        self.subclass_links.add((child, parent))

    def add_property(self, prop: Iri, domain: Iri, range_: Iri) -> None:
        self.version += 1
        existing = self.property_decls.get(prop)
        if existing is not None and existing != (domain, range_):
            raise DeclarationConflictError(f"property {prop} redeclared with a different signature")
        self.property_decls[prop] = (domain, range_)
        self.class_decls.add(domain)
        self.class_decls.add(range_)

    def add_disjoint(self, a: Iri, b: Iri) -> None:
        self.version += 1
        self.class_decls.add(a)
        self.class_decls.add(b)
        self.disjoint_pairs.add((a, b))
        self.disjoint_pairs.add((b, a))

    def add_axiom(self, axiom: ClassAxiom) -> None:
        self.version += 1
        self._check_expr_declared(axiom.body)
        self.class_decls.add(axiom.head)
        if axiom not in self.axioms:
            self.axioms.append(axiom)

    def add_annotation(self, ann: MetaAnnotation) -> None:
        self.version += 1
        existing = self.annotations.get(ann.cls)
        if existing is not None and existing != ann:
            raise DeclarationConflictError(f"conflicting META annotations for {ann.cls}")
        self.class_decls.add(ann.cls)
        self.annotations[ann.cls] = ann

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
        self.version += 1
        self.class_decls.add(cls)
        self.type_assertions.add((individual, cls))
        if self._index is not None:
            _index_add(self._index, Statement(individual, TYPE_PRED, cls))

    def remove_type(self, individual: Iri, cls: Iri) -> None:
        self.version += 1
        self.type_assertions.discard((individual, cls))
        if self._index is not None:
            _index_discard(self._index, Statement(individual, TYPE_PRED, cls))

    def check_statement(self, predicate: Iri, obj: Term) -> None:
        """Raise unless ``add_statement`` accepts this predicate and object."""
        if predicate == TYPE_PRED:
            if not isinstance(obj, Iri):
                raise DeclarationConflictError("type assertions require a class Iri object")
        elif predicate not in self.property_decls:
            raise DeclarationConflictError(f"fact uses undeclared property {predicate}")

    def add_statement(self, subject: Iri, predicate: Iri, obj: Term) -> None:
        self.version += 1
        self.check_statement(predicate, obj)
        if predicate == TYPE_PRED:
            self.add_type(subject, obj)
            return
        stmt = Statement(subject, predicate, obj)
        self.statements.add(stmt)
        if self._index is not None:
            _index_add(self._index, stmt)

    def remove_statement(self, subject: Iri, predicate: Iri, obj: Term) -> None:
        self.version += 1
        stmt = Statement(subject, predicate, obj)
        self.statements.discard(stmt)
        if self._index is not None:
            _index_discard(self._index, stmt)

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

    def types_of(self, individual: Iri) -> set:
        return {s.object for s in self.statements_about(individual) if s.predicate == TYPE_PRED}

    def individuals(self) -> set:
        return set(self._indexes()[0])

    def superclasses(self, cls: Iri) -> set:
        """Transitive ancestors of ``cls`` via subclass links."""
        seen: set = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop()
            for child, parent in self.subclass_links:
                if child == current and parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    def match(self, pattern: Pattern) -> list[dict]:
        """All binding maps under which the substituted triple is present.

        Result order is deterministic: lexicographic by the bound values in
        variable-name order.  A fully-constant pattern yields one empty map
        when the triple is present.
        """
        buckets = []
        for term, by_term in zip((pattern.subject, pattern.predicate, pattern.object), self._indexes()):
            if not isinstance(term, Var):
                bucket = by_term.get(term)
                if bucket is None:
                    return []
                buckets.append(bucket)
        results = []
        seen = set()
        for stmt in min(buckets, key=len) if buckets else self.triples():
            binding = _unify(pattern, stmt)
            if binding is None:
                continue
            key = tuple(sorted((k, term_sort_key(v)) for k, v in binding.items()))
            if key not in seen:
                seen.add(key)
                results.append(binding)
        results.sort(key=lambda b: tuple(term_sort_key(b[name]) for name in sorted(b)))
        return results

    def _indexes(self) -> tuple:
        if self._index is None:
            index = ({}, {}, {})
            for stmt in self.triples():
                _index_add(index, stmt)
            self._index = index
        return self._index

    # -- bookkeeping -------------------------------------------------------

    def copy(self) -> "KnowledgeBase":
        out = KnowledgeBase(
            prefixes=dict(self.prefixes),
            class_decls=set(self.class_decls),
            property_decls=dict(self.property_decls),
            subclass_links=set(self.subclass_links),
            disjoint_pairs=set(self.disjoint_pairs),
            axioms=list(self.axioms),
            annotations=dict(self.annotations),
            type_assertions=set(self.type_assertions),
            statements=set(self.statements),
        )
        if self._index is not None:
            out._index = tuple(
                {term: set(bucket) for term, bucket in by_term.items()} for by_term in self._index
            )
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return (
            self.prefixes == other.prefixes
            and self.class_decls == other.class_decls
            and self.property_decls == other.property_decls
            and self.subclass_links == other.subclass_links
            and self.disjoint_pairs == other.disjoint_pairs
            and set(self.axioms) == set(other.axioms)
            and self.annotations == other.annotations
            and self.type_assertions == other.type_assertions
            and self.statements == other.statements
        )

    def _reachable(self, start: Iri, goal: Iri) -> bool:
        return goal == start or goal in self.superclasses(start)

    def _cycle_path(self, start: Iri, goal: Iri) -> list:
        """A subclass path start -> ... -> goal (exists when _reachable)."""
        if start == goal:
            return [start]
        stack = [(start, [start])]
        visited = set()
        while stack:
            node, path = stack.pop()
            for child, parent in sorted(self.subclass_links, key=lambda l: term_sort_key(l[1])):
                if child == node and parent not in visited:
                    if parent == goal:
                        return path + [parent]
                    visited.add(parent)
                    stack.append((parent, path + [parent]))
        return [start, goal]


def _unify(pattern: Pattern, stmt: Statement) -> Optional[dict]:
    binding: dict = {}
    for pat_term, value in (
        (pattern.subject, stmt.subject),
        (pattern.predicate, stmt.predicate),
        (pattern.object, stmt.object),
    ):
        if isinstance(pat_term, Var):
            bound = binding.get(pat_term.name)
            if bound is None:
                binding[pat_term.name] = value
            elif bound != value:
                return None
        elif pat_term != value:
            return None
    return binding


_NO_STATEMENTS: frozenset = frozenset()


def _index_add(index: tuple, stmt: Statement) -> None:
    for term, by_term in zip((stmt.subject, stmt.predicate, stmt.object), index):
        bucket = by_term.get(term)
        if bucket is None:
            by_term[term] = {stmt}
        else:
            bucket.add(stmt)


def _index_discard(index: tuple, stmt: Statement) -> None:
    for term, by_term in zip((stmt.subject, stmt.predicate, stmt.object), index):
        bucket = by_term.get(term)
        if bucket is not None:
            bucket.discard(stmt)
            if not bucket:
                del by_term[term]


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


_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[()]|[^\s()"]+')
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
_INT_RE = re.compile(r"^-?[0-9]+$")
_DECIMAL_RE = re.compile(r"^-?[0-9]+\.[0-9]+$")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _strip_comment(raw: str) -> str:
    # A comment `#` must start the line or follow whitespace, so tokens such
    # as namespace expansions ending in `#` survive.
    in_string = False
    i = 0
    while i < len(raw):
        ch = raw[i]
        if in_string:
            if ch == "\\":
                i += 1
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "#" and (i == 0 or raw[i - 1].isspace()):
            return raw[:i]
        i += 1
    return raw


def content_lines(text: str) -> Iterator[tuple]:
    """(line number, words) for each line with words left once its comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = _strip_comment(raw).split()
        if words:
            yield lineno, words


def _tokenize_line(raw: str, lineno: int) -> list[_Token]:
    text = _strip_comment(raw)
    return [_Token(m.group(0), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(text)]


class _Cursor:
    """Cursor over a token list with positioned errors.

    Running out of tokens is an error just past the last token (line 1,
    column 1 when there is none).
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            column = (last.column + len(last.text)) if last else 1
            raise ParseError(line, column, expected)
        self.pos += 1
        return tok

    def expect(self, word: str) -> _Token:
        tok = self.next(word)
        if tok.text != word:
            raise ParseError(tok.line, tok.column, word)
        return tok

    def done(self, expected: str) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok.line, tok.column, expected)


def _parse_name(tok: _Token, prefixes: dict) -> Iri:
    name = parse_name(tok.text, prefixes)
    if not _NAME_RE.match(name.local):
        raise ParseError(tok.line, tok.column, "a name")
    return name


def _parse_term(tok: _Token, prefixes: dict) -> Term:
    text = tok.text
    if text.startswith('"'):
        body = text[1:-1]
        value = body.replace('\\"', '"').replace("\\\\", "\\")
        return Literal("string", value)
    if _INT_RE.match(text):
        return Literal("integer", int(text))
    if _DECIMAL_RE.match(text):
        try:
            return Literal("decimal", Decimal(text))
        except InvalidOperation:  # pragma: no cover - regex prevents this
            raise ParseError(tok.line, tok.column, "a decimal literal")
    return _parse_name(tok, prefixes)


def _parse_class_expr(reader: _Cursor, prefixes: dict) -> ClassExpr:
    reader.expect("(")
    first = reader.next("a class expression")
    if first.text == "(":
        reader.pos -= 1
        operand: ClassExpr = _parse_class_expr(reader, prefixes)
    else:
        peek = reader.peek()
        if peek is not None and peek.text == "SOME":
            reader.expect("SOME")
            filler = _parse_name(reader.next("a class name"), prefixes)
            reader.expect(")")
            return SomeValues(_parse_name(first, prefixes), filler)
        operand = NamedClass(_parse_name(first, prefixes))
    parts = [operand]
    while True:
        tok = reader.next("AND or )")
        if tok.text == ")":
            break
        if tok.text != "AND":
            raise ParseError(tok.line, tok.column, "AND or )")
        nxt = reader.next("a class expression")
        if nxt.text == "(":
            reader.pos -= 1
            parts.append(_parse_class_expr(reader, prefixes))
        else:
            parts.append(NamedClass(_parse_name(nxt, prefixes)))
    if len(parts) == 1:
        return parts[0]
    return Conjunction(tuple(parts))


def parse_document(text: str, base: Optional[KnowledgeBase] = None) -> KnowledgeBase:
    """Parse a document into a fresh kb (or an extension of a copy of ``base``)."""
    kb = base.copy() if base is not None else KnowledgeBase()
    tokenized = [_tokenize_line(raw, i) for i, raw in enumerate(text.splitlines(), start=1)]
    tokenized = [tokens for tokens in tokenized if tokens]

    # Prefix table first: prefixed names may appear on any later line.
    for tokens in tokenized:
        if tokens[0].text != "@prefix":
            continue
        reader = _Cursor(tokens)
        reader.expect("@prefix")
        name_tok = reader.next("a prefix name")
        name = name_tok.text
        if not name.endswith(":") or len(name) < 2:
            raise ParseError(name_tok.line, name_tok.column, "a prefix name ending in ':'")
        expansion = reader.next("a prefix expansion").text
        reader.done("end of line")
        kb.add_prefix(name[:-1], expansion)

    # Declarations next so facts and axioms can reference them in any order.
    for tokens in tokenized:
        directive = tokens[0].text
        reader = _Cursor(tokens)
        if directive == "CLASS":
            reader.expect("CLASS")
            cls = _parse_name(reader.next("a class name"), kb.prefixes)
            if reader.peek() is not None:
                reader.expect("SUBCLASSOF")
                parent = _parse_name(reader.next("a class name"), kb.prefixes)
                reader.done("end of line")
                kb.add_subclass(cls, parent)
            else:
                kb.add_class(cls)
        elif directive == "PROPERTY":
            reader.expect("PROPERTY")
            prop = _parse_name(reader.next("a property name"), kb.prefixes)
            reader.expect("DOMAIN")
            domain = _parse_name(reader.next("a class name"), kb.prefixes)
            reader.expect("RANGE")
            range_ = _parse_name(reader.next("a class name"), kb.prefixes)
            reader.done("end of line")
            kb.add_property(prop, domain, range_)

    # Everything else in document order.
    for tokens in tokenized:
        directive = tokens[0].text
        if directive in ("@prefix", "CLASS", "PROPERTY"):
            continue
        reader = _Cursor(tokens)
        if directive == "DISJOINT":
            reader.expect("DISJOINT")
            a = _parse_name(reader.next("a class name"), kb.prefixes)
            b = _parse_name(reader.next("a class name"), kb.prefixes)
            reader.done("end of line")
            kb.add_disjoint(a, b)
        elif directive == "AXIOM":
            reader.expect("AXIOM")
            body = _parse_class_expr(reader, kb.prefixes)
            reader.expect("SUBCLASSOF")
            head = _parse_name(reader.next("a class name"), kb.prefixes)
            reader.done("end of line")
            try:
                kb.add_axiom(ClassAxiom(body, head))
            except DeclarationConflictError as exc:
                raise ParseError(tokens[0].line, tokens[0].column, str(exc))
        elif directive == "INDIVIDUAL":
            reader.expect("INDIVIDUAL")
            ind = _parse_name(reader.next("an individual name"), kb.prefixes)
            reader.expect("TYPE")
            cls = _parse_name(reader.next("a class name"), kb.prefixes)
            reader.done("end of line")
            kb.add_type(ind, cls)
        elif directive == "FACT":
            reader.expect("FACT")
            subject = _parse_name(reader.next("a subject name"), kb.prefixes)
            predicate = _parse_name(reader.next("a predicate name"), kb.prefixes)
            obj = _parse_term(reader.next("an object term"), kb.prefixes)
            reader.done("end of line")
            try:
                kb.add_statement(subject, predicate, obj)
            except DeclarationConflictError as exc:
                raise ParseError(tokens[0].line, tokens[0].column, str(exc))
        elif directive == "META":
            reader.expect("META")
            cls = _parse_name(reader.next("a class name"), kb.prefixes)
            flags = []
            while reader.peek() is not None:
                tok = reader.next("a metaproperty flag")
                if tok.text not in ALL_FLAGS:
                    raise ParseError(tok.line, tok.column, "one of " + " ".join(ALL_FLAGS))
                flags.append(tok.text)
            kb.add_annotation(annotation_from_flags(cls, flags))
        else:
            tok = tokens[0]
            raise ParseError(tok.line, tok.column, "a directive (@prefix, CLASS, PROPERTY, DISJOINT, AXIOM, INDIVIDUAL, FACT, META)")
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
    canonical_pairs = {tuple(sorted(pair, key=term_sort_key)) for pair in kb.disjoint_pairs}
    for a, b in sorted(canonical_pairs, key=lambda p: (term_sort_key(p[0]), term_sort_key(p[1]))):
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
