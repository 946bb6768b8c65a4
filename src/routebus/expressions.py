"""Template expressions for reading exchange data inside routes.

An expression is plain text with ``${...}`` placeholders.  A placeholder path
starts at one of the roots ``body``, ``bodyAs(String)``, ``id``,
``header.NAME`` or ``headers.NAME`` and may be followed by the accessors
``.split("SEP")[i]``, ``[i]`` and ``.size`` -- nothing else.

A template that is a single placeholder evaluates to the placeholder's typed
value; any mix of literal text and placeholders evaluates to text with the
placeholder values stringified.  Lists and tuples stringify in the agent list
syntax (elements comma-separated in brackets, text elements double-quoted),
and terms as their canonical text, so such a body dropped into a term
template parses back as a term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .messages import BodyValue, Exchange, RowSet
from .terms import TERM_TYPES, ListTerm, Number, Str, Term, render_term

__all__ = [
    "Expr",
    "LiteralText",
    "Placeholder",
    "SplitAccessor",
    "IndexAccessor",
    "SizeAccessor",
    "ExpressionSyntaxError",
    "MissingHeaderError",
    "TypeMismatchError",
    "EvalIndexError",
    "parse_expr",
    "render_expr",
    "eval_expr",
    "stringify",
    "body_to_term",
    "term_to_body",
    "expr",
    "constant",
    "header",
    "body",
]


class ExpressionSyntaxError(ValueError):
    pass


class MissingHeaderError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"no header named {self.name!r}"


class TypeMismatchError(TypeError):
    pass


class EvalIndexError(IndexError):
    pass


@dataclass(frozen=True)
class SplitAccessor:
    sep: str


@dataclass(frozen=True)
class IndexAccessor:
    index: int


@dataclass(frozen=True)
class SizeAccessor:
    pass


Accessor = Union[SplitAccessor, IndexAccessor, SizeAccessor]

# Roots keep their source spelling ("header" and "headers" are synonyms) so
# that rendering reproduces the input text.
_ROOTS = ("body", "bodyAs(String)", "id")


@dataclass(frozen=True)
class Placeholder:
    root: str
    header_name: str | None = None
    accessors: tuple[Accessor, ...] = ()


@dataclass(frozen=True)
class LiteralText:
    text: str


Segment = Union[LiteralText, Placeholder]


@dataclass(frozen=True)
class Expr:
    segments: tuple[Segment, ...]


# --- parsing -----------------------------------------------------------------


def parse_expr(text: str) -> Expr:
    segments: list[Segment] = []
    buf: list[str] = []
    i = 0
    while i < len(text):
        if text.startswith("${", i):
            if buf:
                segments.append(LiteralText("".join(buf)))
                buf = []
            end = text.find("}", i + 2)
            if end < 0:
                raise ExpressionSyntaxError(f"unterminated placeholder at offset {i}")
            segments.append(_parse_placeholder(text[i + 2 : end]))
            i = end + 1
        else:
            buf.append(text[i])
            i += 1
    if buf:
        segments.append(LiteralText("".join(buf)))
    return Expr(tuple(segments))


def _parse_placeholder(path: str) -> Placeholder:
    root: str
    header_name = None
    rest: str
    if path.startswith("bodyAs(String)"):
        root, rest = "bodyAs(String)", path[len("bodyAs(String)") :]
    elif path.startswith("headers.") or path.startswith("header."):
        root = path.split(".", 1)[0]
        after = path[len(root) + 1 :]
        j = 0
        while j < len(after) and after[j] not in ".[":
            j += 1
        header_name = after[:j]
        if not header_name:
            raise ExpressionSyntaxError(f"missing header name in ${{{path}}}")
        rest = after[j:]
    elif path == "body" or path.startswith(("body.", "body[")):
        root, rest = "body", path[4:]
    elif path == "id" or path.startswith(("id.", "id[")):
        root, rest = "id", path[2:]
    else:
        raise ExpressionSyntaxError(f"unknown placeholder root in ${{{path}}}")

    accessors: list[Accessor] = []
    while rest:
        if rest.startswith('.split("'):
            close = rest.find('")', len('.split("'))
            if close < 0:
                raise ExpressionSyntaxError(f"unterminated split separator in ${{{path}}}")
            sep = rest[len('.split("') : close]
            rest = rest[close + 2 :]
            if not rest.startswith("["):
                raise ExpressionSyntaxError(f"split must be indexed in ${{{path}}}")
            accessors.append(SplitAccessor(sep))
        elif rest.startswith(".size"):
            accessors.append(SizeAccessor())
            rest = rest[len(".size") :]
        elif rest.startswith("["):
            close = rest.find("]")
            if close < 0:
                raise ExpressionSyntaxError(f"unterminated index in ${{{path}}}")
            digits = rest[1:close]
            if not digits.isdigit():
                raise ExpressionSyntaxError(f"non-numeric index {digits!r} in ${{{path}}}")
            accessors.append(IndexAccessor(int(digits)))
            rest = rest[close + 1 :]
        else:
            raise ExpressionSyntaxError(f"unknown accessor {rest!r} in ${{{path}}}")
    return Placeholder(root, header_name, tuple(accessors))


def render_expr(e: Expr) -> str:
    out: list[str] = []
    for seg in e.segments:
        if isinstance(seg, LiteralText):
            out.append(seg.text)
        else:
            out.append("${" + _render_path(seg) + "}")
    return "".join(out)


def _render_path(p: Placeholder) -> str:
    if p.header_name is not None:
        path = f"{p.root}.{p.header_name}"
    else:
        path = p.root
    for acc in p.accessors:
        if isinstance(acc, SplitAccessor):
            path += f'.split("{acc.sep}")'
        elif isinstance(acc, IndexAccessor):
            path += f"[{acc.index}]"
        else:
            path += ".size"
    return path


# --- evaluation --------------------------------------------------------------


def eval_expr(e: Expr, x: Exchange) -> BodyValue:
    """Evaluate against an exchange; never mutates it."""
    if len(e.segments) == 1 and isinstance(e.segments[0], Placeholder):
        return _eval_placeholder(e.segments[0], x)
    out: list[str] = []
    for seg in e.segments:
        if isinstance(seg, LiteralText):
            out.append(seg.text)
        else:
            out.append(stringify(_eval_placeholder(seg, x)))
    return "".join(out)


def _eval_placeholder(p: Placeholder, x: Exchange) -> BodyValue:
    value: BodyValue
    if p.root == "body":
        value = x.in_msg.body
    elif p.root == "bodyAs(String)":
        value = stringify(x.in_msg.body)
    elif p.root == "id":
        value = x.id
    else:
        if p.header_name not in x.in_msg.headers:
            raise MissingHeaderError(p.header_name)
        value = x.in_msg.headers[p.header_name]
    for acc in p.accessors:
        value = _apply(acc, value)
    return value


def _apply(acc: Accessor, value: BodyValue) -> BodyValue:
    if isinstance(acc, SplitAccessor):
        if not isinstance(value, str):
            raise TypeMismatchError(f"split applied to non-text value {value!r}")
        return tuple(value.split(acc.sep))
    if isinstance(acc, IndexAccessor):
        if not isinstance(value, (list, tuple)):
            raise TypeMismatchError(f"index applied to non-list value {value!r}")
        if acc.index >= len(value):
            raise EvalIndexError(f"index {acc.index} out of range (size {len(value)})")
        return value[acc.index]
    if isinstance(acc, SizeAccessor):
        if isinstance(value, (list, tuple, RowSet)):
            return len(value)
        raise TypeMismatchError(f"size applied to non-collection value {value!r}")
    raise TypeError(f"unknown accessor {acc!r}")


def stringify(value: BodyValue) -> str:
    """Text form of a body value.

    Text passes through unquoted; lists and tuples render in agent list
    syntax, and terms as their canonical text, so the result can be embedded
    in a term template.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return render_term(Number(float(value)))
    if isinstance(value, (list, tuple)):
        return render_term(body_to_term(value))
    if isinstance(value, TERM_TYPES):
        return render_term(value)
    if isinstance(value, RowSet):
        rows = ",".join(
            "{" + ",".join(f"{c}={row[c]}" for c in value.columns) + "}" for row in value.rows
        )
        return "[" + rows + "]"
    raise TypeMismatchError(f"cannot stringify {value!r}")


def body_to_term(value: BodyValue) -> Term:
    """Lift a body value into the term space (text becomes a string term);
    a term is already there."""
    if isinstance(value, str):
        return Str(value)
    if isinstance(value, (int, float)):
        return Number(float(value))
    if isinstance(value, (list, tuple)):
        return ListTerm(tuple(body_to_term(el) for el in value))
    if isinstance(value, TERM_TYPES):
        return value
    raise TypeMismatchError(f"no term form for body value {value!r}")


def term_to_body(t: Term) -> BodyValue:
    """Project a term back onto plain body values; other terms keep their text form."""
    if isinstance(t, Str):
        return t.text
    if isinstance(t, Number):
        return t.value
    if isinstance(t, ListTerm):
        return tuple(term_to_body(el) for el in t.elements)
    return render_term(t)


# --- route DSL helpers ---------------------------------------------------------


def expr(text: str) -> Expr:
    """Parse a template; the workhorse for route definitions."""
    return parse_expr(text)


def constant(text: str) -> Expr:
    return Expr((LiteralText(text),))


def header(name: str) -> Expr:
    return Expr((Placeholder("headers", name),))


def body() -> Expr:
    return Expr((Placeholder("body"),))
