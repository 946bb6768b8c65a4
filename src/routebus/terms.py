"""Agent literal syntax: terms, a parser, a canonical renderer, and argument binding.

The grammar is deliberately small.  It covers exactly what flows through
message bodies, action terms and percepts:

    term      := literal | number | string | variable | list
    literal   := name args? annots?            name: [a-z][A-Za-z0-9_]*
    args      := "(" term ("," term)* ")"
    annots    := "[" term ("," term)* "]"      only after a literal
    list      := "[" (term ("," term)*)? "]"
    string    := '"' text '"'                  \\" escapes a quote, \\\\ a backslash
    variable  := [A-Z_][A-Za-z0-9_]*
    number    := "-"? digits ("." digits)? (("e"|"E") ("+"|"-")? digits)?

Whitespace between tokens is ignored on parse.  ``render_term`` emits the
canonical form (no whitespace, strings double-quoted, annotations last), and
``parse_term(render_term(t))`` reproduces ``t`` for every valid term.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Atom",
    "Number",
    "Str",
    "Var",
    "ListTerm",
    "Compound",
    "Term",
    "Literal",
    "TERM_TYPES",
    "ActionTerm",
    "TermSyntaxError",
    "NotAVariableError",
    "ArgumentIndexError",
    "parse_term",
    "render_term",
    "quote",
    "bind_argument",
    "functor_of",
    "args_of",
    "free_variables",
    "substitute",
]

NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
VAR_RE = re.compile(r"[A-Z_][A-Za-z0-9_]*")
NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")
# A run of string characters that need no unescaping.
PLAIN_RE = re.compile(r'[^"\\]*')


class TermSyntaxError(ValueError):
    """Malformed term text; carries the offset and a note of what was expected."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"syntax error at offset {position}: expected {expected}")
        self.position = position
        self.expected = expected


class NotAVariableError(ValueError):
    """An argument that should have been an unbound variable is ground."""


class ArgumentIndexError(IndexError):
    """A 1-based argument index falls outside the term's arity."""


@dataclass(frozen=True)
class Atom:
    name: str
    annotations: tuple["Term", ...] = ()


@dataclass(frozen=True)
class Number:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Str:
    text: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ListTerm:
    elements: tuple["Term", ...] = ()


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]
    annotations: tuple["Term", ...] = ()


Term = Union[Atom, Number, Str, Var, ListTerm, Compound]

# A literal is what can appear as message content, percept, or action term.
Literal = Union[Atom, Compound]

# The term classes as a tuple, for ``isinstance`` on values that may be terms.
TERM_TYPES = (Atom, Number, Str, Var, ListTerm, Compound)


def functor_of(t: Term) -> str:
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Compound):
        return t.functor
    raise TypeError(f"term {t!r} has no functor")


def args_of(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Atom):
        return ()
    if isinstance(t, Compound):
        return t.args
    raise TypeError(f"term {t!r} has no arguments")


def free_variables(t: Term) -> frozenset[str]:
    """Names of all variables occurring anywhere in ``t``."""
    out: set[str] = set()
    _collect_vars(t, out)
    return frozenset(out)


def _collect_vars(t: Term, out: set[str]) -> None:
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, ListTerm):
        for el in t.elements:
            _collect_vars(el, out)
    elif isinstance(t, Compound):
        for a in t.args:
            _collect_vars(a, out)
        for a in t.annotations:
            _collect_vars(a, out)
    elif isinstance(t, Atom):
        for a in t.annotations:
            _collect_vars(a, out)


def substitute(t: Term, var_name: str, value: Term) -> Term:
    """Replace every occurrence of the named variable in ``t`` with ``value``."""
    if isinstance(t, Var):
        return value if t.name == var_name else t
    if isinstance(t, ListTerm):
        return ListTerm(tuple(substitute(el, var_name, value) for el in t.elements))
    if isinstance(t, Compound):
        return Compound(
            t.functor,
            tuple(substitute(a, var_name, value) for a in t.args),
            tuple(substitute(a, var_name, value) for a in t.annotations),
        )
    if isinstance(t, Atom) and t.annotations:
        return Atom(t.name, tuple(substitute(a, var_name, value) for a in t.annotations))
    return t


@dataclass(frozen=True)
class ActionTerm:
    """An action literal together with its free variables.

    Zero-arity actions are plain atoms; actions with arguments are compounds.
    An action dispatched asynchronously must be ground (``free_vars`` empty).
    """

    literal: Literal

    def __post_init__(self):
        if not isinstance(self.literal, (Atom, Compound)):
            raise TypeError("action term must be an atom or a compound literal")

    @property
    def functor(self) -> str:
        return functor_of(self.literal)

    @property
    def args(self) -> tuple[Term, ...]:
        return args_of(self.literal)

    @property
    def free_vars(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.args:
            _collect_vars(a, out)
        return frozenset(out)


def bind_argument(action: ActionTerm, index: int, value: Term) -> ActionTerm:
    """Bind the variable at the 1-based argument ``index`` to ``value``.

    The variable is replaced consistently throughout the whole term, so
    repeated occurrences of the same name are all bound at once.
    """
    args = action.args
    if index < 1 or index > len(args):
        raise ArgumentIndexError(
            f"argument index {index} out of range for {action.functor}/{len(args)}"
        )
    target = args[index - 1]
    if not isinstance(target, Var):
        raise NotAVariableError(
            f"argument {index} of {action.functor} is ground: {render_term(target)}"
        )
    return ActionTerm(substitute(action.literal, target.name, value))


# --- rendering ---------------------------------------------------------------


def render_term(t: Term) -> str:
    """Canonical text form; comma-separated with no whitespace."""
    if isinstance(t, Atom):
        return t.name + _render_annots(t.annotations)
    if isinstance(t, Number):
        v = t.value
        if not math.isfinite(v):
            raise ValueError(f"number {v!r} has no term syntax")
        if v.is_integer():
            return str(int(v))
        return repr(v)
    if isinstance(t, Str):
        return quote(t.text)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, ListTerm):
        return "[" + ",".join(render_term(el) for el in t.elements) + "]"
    if isinstance(t, Compound):
        inner = ",".join(render_term(a) for a in t.args)
        return f"{t.functor}({inner})" + _render_annots(t.annotations)
    raise TypeError(f"not a term: {t!r}")


def quote(text: str) -> str:
    """The canonical text of the string term ``Str(text)``."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_annots(annots: tuple[Term, ...]) -> str:
    if not annots:
        return ""
    return "[" + ",".join(render_term(a) for a in annots) + "]"


# --- parsing -----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, expected: str) -> TermSyntaxError:
        return TermSyntaxError(self.pos, expected)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"'{ch}'")
        self.pos += 1

    def term(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            raise self.error("a term")
        if ch == '"':
            return self.string()
        if ch == "[":
            return self.list_term()
        if ch == "-" or ch.isdigit():
            return self.number()
        m = NAME_RE.match(self.text, self.pos)
        if m:
            return self.literal(m.group())
        m = VAR_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Var(m.group())
        raise self.error("a term")

    def literal(self, name: str) -> Term:
        self.pos += len(name)
        args: tuple[Term, ...] = ()
        has_args = False
        if self.peek() == "(":
            self.pos += 1
            args = self.term_list(")")
            has_args = True
        annots: tuple[Term, ...] = ()
        if self.peek() == "[":
            self.pos += 1
            annots = self.term_list("]")
        if has_args:
            return Compound(name, args, annots)
        return Atom(name, annots)

    def term_list(self, closer: str) -> tuple[Term, ...]:
        self.skip_ws()
        if self.peek() == closer:
            self.pos += 1
            return ()
        items = [self.term()]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            items.append(self.term())
            self.skip_ws()
        self.expect(closer)
        return tuple(items)

    def list_term(self) -> ListTerm:
        self.expect("[")
        return ListTerm(self.term_list("]"))

    def string(self) -> Str:
        self.expect('"')
        out: list[str] = []
        while True:
            m = PLAIN_RE.match(self.text, self.pos)
            out.append(m.group())
            self.pos = m.end()
            ch = self.peek()
            if ch == '"':
                self.pos += 1
                return Str("".join(out))
            if ch == "":
                raise self.error("closing '\"'")
            escaped = self.text[self.pos + 1 : self.pos + 2]
            if escaped not in ('"', "\\"):
                raise self.error("'\\\"' or '\\\\'")
            out.append(escaped)
            self.pos += 2

    def number(self) -> Number:
        m = NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise self.error("a number")
        self.pos = m.end()
        return Number(float(m.group()))


def parse_term(text: str) -> Term:
    if not text:
        raise TermSyntaxError(0, "a non-empty term")
    p = _Parser(text)
    t = p.term()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("end of input")
    return t
