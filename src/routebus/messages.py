"""Exchange, message and endpoint-URI model shared by all routes and endpoints.

Every thread draws exchange ids from one counter, ``_SEQ``, with no lock:
``next`` on an ``itertools.count`` is one C call under the GIL."""

from __future__ import annotations

import itertools
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .terms import Term

__all__ = [
    "BodyValue",
    "RowSet",
    "Message",
    "Exchange",
    "ExchangePattern",
    "EndpointUri",
    "MalformedUriError",
    "new_exchange",
    "parse_bool",
    "parse_uri",
]


class MalformedUriError(ValueError):
    pass


@dataclass(frozen=True)
class RowSet:
    """An ordered set of rows; every row maps exactly the same column names to text."""

    columns: tuple[str, ...]
    rows: tuple[dict[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(self.rows))
        expected = set(self.columns)
        for row in self.rows:
            if set(row) != expected:
                raise ValueError(f"row {row!r} does not match columns {self.columns}")

    def __len__(self) -> int:
        return len(self.rows)


# A message body (or header value) is plain data: text, a number, a sequence
# of bodies, a row set from a table query, a term, or nothing.  The library
# never edits a value in place, so copies of a message share them.
BodyValue = Union[None, str, int, float, list, tuple, RowSet, Term]


class ExchangePattern(Enum):
    IN_ONLY = "InOnly"
    IN_OUT = "InOut"

    @classmethod
    def parse(cls, text: str) -> "ExchangePattern":
        for p in cls:
            if p.value == text:
                return p
        raise ValueError(f"unknown exchange pattern {text!r}")


@dataclass
class Message:
    headers: dict[str, BodyValue] = field(default_factory=dict)
    body: BodyValue = None

    def copy(self) -> "Message":
        """A message with its own header dict; the values are shared."""
        return Message(dict(self.headers), self.body)


@dataclass
class Exchange:
    id: str
    pattern: ExchangePattern
    in_msg: Message
    out_msg: Optional[Message] = None

    def copy(self) -> "Exchange":
        """Copy for fan-out: the copy keeps the id of the original and has its
        own header dicts, so setting a header on one leaves the other as it is."""
        return Exchange(
            self.id,
            self.pattern,
            self.in_msg.copy(),
            self.out_msg.copy() if self.out_msg else None,
        )


# Exchange ids are a process-start token plus a monotonic counter, so they are
# stable, comparable text that can serve as correlation keys.  The token keeps
# ids from different processes apart; neither part ever contains ':' or '__'.
_RUN_TOKEN = "x" + uuid.uuid4().hex[:8]
_SEQ = itertools.count(1)


def new_exchange(
    pattern: ExchangePattern = ExchangePattern.IN_ONLY,
    body: BodyValue = None,
    headers: Optional[dict[str, BodyValue]] = None,
) -> Exchange:
    return Exchange(f"{_RUN_TOKEN}-{next(_SEQ)}", pattern, Message(dict(headers or {}), body))


# --- endpoint URIs -----------------------------------------------------------

_SCHEME_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+.-"

# Only characters that would break the query syntax get percent-encoded.
_RESERVED = {"%", "&", "=", "?", "#", "\n", "\r"}


def _encode(text: str) -> str:
    out = []
    for ch in text:
        if ch in _RESERVED:
            out.append("%{:02X}".format(ord(ch)))
        else:
            out.append(ch)
    return "".join(out)


def _decode(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            if i + 3 > len(text):
                raise MalformedUriError(f"truncated percent escape in {text!r}")
            try:
                out.append(chr(int(text[i + 1 : i + 3], 16)))
            except ValueError as exc:
                raise MalformedUriError(f"bad percent escape in {text!r}") from exc
            i += 3
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_bool(text: str) -> bool:
    """The true/false rule of URI parameters: ``true``, ``1`` or ``yes`` in any case."""
    return text.lower() in ("true", "1", "yes")


@dataclass(frozen=True)
class EndpointUri:
    """``scheme:path?k1=v1&k2=v2`` with an ordered, repeatable parameter map."""

    scheme: str
    path: str
    params: tuple[tuple[str, str], ...] = ()

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.params:
            if k == name:
                return v
        return default

    def get_all(self, name: str) -> list[str]:
        return [v for k, v in self.params if k == name]

    def get_bool(self, name: str, default: bool = False) -> bool:
        v = self.get(name)
        return default if v is None else parse_bool(v)

    def render(self) -> str:
        text = f"{self.scheme}:{self.path}"
        if self.params:
            text += "?" + "&".join(f"{_encode(k)}={_encode(v)}" for k, v in self.params)
        return text

    def __str__(self) -> str:
        return self.render()


def parse_uri(text: str) -> EndpointUri:
    colon = text.find(":")
    if colon <= 0:
        raise MalformedUriError(f"no scheme in {text!r}")
    scheme = text[:colon]
    if any(ch not in _SCHEME_CHARS for ch in scheme) or not scheme[0].isalpha():
        raise MalformedUriError(f"bad scheme in {text!r}")
    rest = text[colon + 1 :]
    qmark = rest.find("?")
    if qmark < 0:
        return EndpointUri(scheme, rest)
    path = rest[:qmark]
    query = rest[qmark + 1 :]
    params: list[tuple[str, str]] = []
    if query:
        for part in query.split("&"):
            if not part:
                continue
            eq = part.find("=")
            if eq < 0:
                params.append((_decode(part), ""))
            else:
                params.append((_decode(part[:eq]), _decode(part[eq + 1 :])))
    return EndpointUri(scheme, path, tuple(params))
