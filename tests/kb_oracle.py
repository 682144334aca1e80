"""The positioned-token ``.kb`` reader: the differential oracle for ``kb.parse_document``.

Every word becomes a token that carries its line and column, every line is
scanned for a comment, and every name is resolved where it stands.  The
reader in ``kb`` allocates per word only what it reads and computes a
position only for an error; on any text both must return equal knowledge
bases or raise the same exception with the same ``(line, column, expected)``.
It shares the name, term and class-expression vocabulary with ``kb`` but none
of its line reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from soa_hitlcps.errors import DeclarationConflictError, ParseError
from soa_hitlcps.kb import (
    ALL_FLAGS,
    ClassAxiom,
    ClassExpr,
    Conjunction,
    KnowledgeBase,
    MAX_CLASS_EXPR_DEPTH,
    NamedClass,
    SomeValues,
    _COMMENT_RE,
    _TOKEN_RE,
    _parse_term,
    annotation_from_flags,
    parse_name,
)


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _strip_comment(raw: str) -> str:
    comment = _COMMENT_RE.match(raw)
    return raw[:comment.end() - 1] if comment else raw


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


def _parse_name(tok: _Token, prefixes: dict):
    return parse_name(tok.text, prefixes, tok.line, tok.column)


def _parse_class_expr(reader: _Cursor, prefixes: dict, depth: int = 1) -> ClassExpr:
    opening = reader.expect("(")
    if depth > MAX_CLASS_EXPR_DEPTH:
        raise ParseError(opening.line, opening.column, f"at most {MAX_CLASS_EXPR_DEPTH} nested parentheses")
    first = reader.next("a class expression")
    if first.text == "(":
        reader.pos -= 1
        operand: ClassExpr = _parse_class_expr(reader, prefixes, depth + 1)
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
            parts.append(_parse_class_expr(reader, prefixes, depth + 1))
        else:
            parts.append(NamedClass(_parse_name(nxt, prefixes)))
    if len(parts) == 1:
        return parts[0]
    return Conjunction(tuple(parts))


def parse_document(text: str) -> KnowledgeBase:
    """Parse a document into a fresh kb."""
    kb = KnowledgeBase()
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
            tok = reader.next("an object term")
            obj = _parse_term(tok.text, kb.prefixes, tok.line, tok.column)
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
