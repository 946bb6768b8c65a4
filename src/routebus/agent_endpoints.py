"""The ``agent:`` endpoint component bridging agents and routes.

Four endpoint kinds exist, addressed as ``agent:message``, ``agent:action``
(consumers) and ``agent:message``, ``agent:percept`` (producers).  Consumer
endpoints turn messages sent / actions performed by local agents into
exchanges, applying their URI-parameter selectors first; producer endpoints
turn exchanges into agent messages or percepts, with message headers
overriding the URI parameters field by field.  A parameter and a header of
its name are read by the same parser (``_PARSERS``).  A consumer's exchange body is
the content term itself, or its rendered text when a ``match`` selector is
set; a producer takes a literal body as it is and parses a text body.
"""

from __future__ import annotations

import re
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace as dc_replace
from enum import Enum
from typing import Callable, Optional

from .agents import (
    ActionTimeoutError,
    AgentContainer,
    AgentId,
    AgentMessage,
    ActionMode,
    BROADCAST,
    Persistence,
    Sync,
    UpdateMode,
)
from .expressions import body_to_term, stringify
from .messages import BodyValue, EndpointUri, Exchange, ExchangePattern, new_exchange, parse_bool
from .routing import Channel, Component, Consumer, Delivery, Producer, RouteEngine, _ChannelConsumer
from .terms import (
    TERM_TYPES,
    ActionTerm,
    Atom,
    Compound,
    Literal,
    Str,
    Term,
    TermSyntaxError,
    bind_argument,
    parse_term,
    render_term,
)

__all__ = [
    "EndpointKind",
    "AgentEndpointConfig",
    "AgentComponent",
    "consume_agent_message",
    "consume_agent_action",
    "complete_sync_action",
    "produce_agent_message",
    "produce_percept",
    "EndpointConfigError",
    "InvalidRegexError",
    "UnparseableContentError",
    "MissingIllocForceError",
    "MissingResultHeaderError",
]


class EndpointConfigError(ValueError):
    pass


class InvalidRegexError(EndpointConfigError):
    pass


class UnparseableContentError(ValueError):
    pass


class MissingIllocForceError(ValueError):
    pass


class MissingResultHeaderError(KeyError):
    pass


class EndpointKind(Enum):
    MESSAGE_CONSUMER = "message-consumer"
    ACTION_CONSUMER = "action-consumer"
    MESSAGE_PRODUCER = "message-producer"
    PERCEPT_PRODUCER = "percept-producer"


_ALLOWED_PARAMS = {
    EndpointKind.MESSAGE_CONSUMER: {
        "illoc_force",
        "sender",
        "receiver",
        "annotations",
        "match",
        "replace",
        "exchangePattern",
    },
    EndpointKind.ACTION_CONSUMER: {
        "actor",
        "actionName",
        "annotations",
        "match",
        "replace",
        "resultHeaderMap",
        "exchangePattern",
    },
    EndpointKind.MESSAGE_PRODUCER: {"illoc_force", "sender", "receiver", "annotations"},
    EndpointKind.PERCEPT_PRODUCER: {"receiver", "annotations", "persistent", "updateMode"},
}


def _receivers(value: BodyValue) -> tuple[str, ...]:
    """A comma-separated list of agent names."""
    return tuple(name for part in stringify(value).split(",") if (name := part.strip()))


def _annotations(value: BodyValue) -> tuple[Term, ...]:
    """A comma-separated annotation list, read as the elements of one list
    term; a sequence holds the text of one term per element."""
    if isinstance(value, (list, tuple)):
        return tuple(parse_term(stringify(v)) for v in value)
    return parse_term("[" + stringify(value) + "]").elements


def _update_mode(value: BodyValue) -> UpdateMode:
    try:
        return UpdateMode(stringify(value))
    except ValueError:
        raise EndpointConfigError(f"unknown updateMode {value!r}") from None


def _result_header_map(text: str) -> tuple[tuple[str, int], ...]:
    pairs = []
    for part in text.split(","):
        name, _, idx = part.partition(":")
        if not name or not idx.isdigit() or int(idx) < 1:
            raise EndpointConfigError(f"bad resultHeaderMap entry {part!r}")
        pairs.append((name, int(idx)))
    return tuple(pairs)


def _exchange_pattern(text: str) -> ExchangePattern:
    try:
        return ExchangePattern.parse(text)
    except ValueError as exc:
        raise EndpointConfigError(str(exc)) from exc


# The parser of each parameter that is not plain text.  ``from_uri`` applies
# it to the URI value once, and ``_effective`` to a header of the same name,
# which overrides the parameter on a producer.
_PARSERS: dict[str, Callable[[BodyValue], object]] = {
    "receiver": _receivers,
    "annotations": _annotations,
    "persistent": lambda value: parse_bool(stringify(value)),
    "updateMode": _update_mode,
    "resultHeaderMap": _result_header_map,
    "exchangePattern": _exchange_pattern,
}


# ``$n`` is group ``n`` (digits read greedily) and ``$$`` a dollar; any other
# ``$`` in a replace template is literal.
_GROUP_REF = re.compile(r"\$(\$|\d+)")


@dataclass(frozen=True)
class AgentEndpointConfig:
    kind: EndpointKind
    illoc_force: Optional[str] = None
    sender: Optional[str] = None
    receiver: Optional[tuple[str, ...]] = None
    actor: Optional[str] = None
    action_name: Optional[str] = None
    annotations: tuple[Term, ...] = ()
    match: Optional[str] = None
    replace: Optional[str] = None
    result_header_map: tuple[tuple[str, int], ...] = ()
    persistent: bool = False
    update_mode: UpdateMode = UpdateMode.ACCUMULATE
    exchange_pattern: Optional[ExchangePattern] = None

    def __post_init__(self):
        # Which kind takes which parameter is checked by ``from_uri``.
        if self.replace is not None and self.match is None:
            raise EndpointConfigError("replace requires match")
        if self.match is not None:
            try:
                object.__setattr__(self, "_pattern", re.compile(self.match))
            except re.error as exc:
                raise InvalidRegexError(f"bad match pattern {self.match!r}: {exc}") from exc
        else:
            object.__setattr__(self, "_pattern", None)
        if self.replace is not None:
            refs = [int(ref) for ref in _GROUP_REF.findall(self.replace) if ref != "$"]
            highest = max(refs, default=0)
            if highest > self.pattern.groups:
                raise EndpointConfigError(
                    f"replace names group {highest}; match has {self.pattern.groups} groups"
                )

    @property
    def pattern(self) -> Optional["re.Pattern[str]"]:
        return self._pattern  # type: ignore[attr-defined]

    @classmethod
    def from_uri(cls, uri: EndpointUri, role: str) -> "AgentEndpointConfig":
        if uri.scheme != "agent":
            raise EndpointConfigError(f"not an agent endpoint: {uri}")
        kind = {
            ("message", "consumer"): EndpointKind.MESSAGE_CONSUMER,
            ("action", "consumer"): EndpointKind.ACTION_CONSUMER,
            ("message", "producer"): EndpointKind.MESSAGE_PRODUCER,
            ("percept", "producer"): EndpointKind.PERCEPT_PRODUCER,
        }.get((uri.path, role))
        if kind is None:
            raise EndpointConfigError(f"agent:{uri.path} has no {role} form")
        allowed = _ALLOWED_PARAMS[kind]
        values: dict = {}
        for name, text in uri.params:
            if name not in allowed:
                raise EndpointConfigError(f"parameter {name!r} not recognised on agent:{uri.path}")
            parse = _PARSERS.get(name)
            values[name] = text if parse is None else parse(text)
        return cls(
            kind=kind,
            illoc_force=values.get("illoc_force"),
            sender=values.get("sender"),
            receiver=values.get("receiver"),
            actor=values.get("actor"),
            action_name=values.get("actionName"),
            annotations=values.get("annotations", ()),
            match=values.get("match"),
            replace=values.get("replace"),
            result_header_map=values.get("resultHeaderMap", ()),
            persistent=values.get("persistent", False),
            update_mode=values.get("updateMode", UpdateMode.ACCUMULATE),
            exchange_pattern=values.get("exchangePattern"),
        )


# --- selector checks ---------------------------------------------------------


def _annotations_match(cfg: AgentEndpointConfig, present: tuple[Term, ...]) -> bool:
    return all(ann in present for ann in cfg.annotations)


def _match_and_replace(cfg: AgentEndpointConfig, content: Literal) -> BodyValue:
    """The exchange body: the content term itself when no ``match`` is set,
    else its rendered text, rewritten by ``replace``; None when the match
    selector rejects."""
    if cfg.pattern is None:
        return content
    rendered = render_term(content)
    m = cfg.pattern.fullmatch(rendered)
    if m is None:
        return None
    if cfg.replace is None:
        return rendered
    return _GROUP_REF.sub(
        lambda ref: "$" if ref[1] == "$" else (m[int(ref[1])] or ""), cfg.replace
    )


# --- consumer operations -------------------------------------------------------


def consume_agent_message(cfg: AgentEndpointConfig, msg: AgentMessage) -> Optional[Exchange]:
    """Build an exchange for a local agent message, or None when a selector rejects."""
    assert cfg.kind is EndpointKind.MESSAGE_CONSUMER
    if cfg.illoc_force is not None and msg.illoc_force != cfg.illoc_force:
        return None
    if cfg.sender is not None and msg.sender != cfg.sender:
        return None
    if cfg.receiver is not None and msg.receiver not in cfg.receiver:
        return None
    if not _annotations_match(cfg, msg.annotations):
        return None
    body = _match_and_replace(cfg, msg.content)
    if body is None:
        return None
    pattern = cfg.exchange_pattern or ExchangePattern.IN_ONLY
    return new_exchange(
        pattern,
        body,
        {
            "illoc_force": msg.illoc_force,
            "sender": msg.sender,
            "receiver": msg.receiver,
            "annotations": tuple(render_term(a) for a in msg.annotations),
            "msg_id": msg.msg_id,
        },
    )


def consume_agent_action(
    cfg: AgentEndpointConfig, actor: AgentId, term: ActionTerm, mode: ActionMode
) -> Optional[Exchange]:
    """Build an exchange for an action performed by a local agent.

    A synchronous dispatch against an endpoint with no ``resultHeaderMap``
    is a configuration error: the route reply could never be bound back.
    """
    assert cfg.kind is EndpointKind.ACTION_CONSUMER
    if cfg.actor is not None and actor.full_name != cfg.actor:
        return None
    if cfg.action_name is not None and term.functor != cfg.action_name:
        return None
    annotations = getattr(term.literal, "annotations", ())
    if not _annotations_match(cfg, annotations):
        return None
    body = _match_and_replace(cfg, term.literal)
    if body is None:
        return None
    if isinstance(mode, Sync) and not cfg.result_header_map:
        raise EndpointConfigError(
            f"sync action {term.functor} needs an endpoint with a resultHeaderMap"
        )
    # A synchronous dispatch is a request/reply exchange even when the URI
    # leaves exchangePattern unset.
    if cfg.exchange_pattern is ExchangePattern.IN_OUT or isinstance(mode, Sync):
        pattern = ExchangePattern.IN_OUT
    else:
        pattern = ExchangePattern.IN_ONLY
    return new_exchange(
        pattern,
        body,
        {
            "actor": actor.full_name,
            "annotations": tuple(render_term(a) for a in annotations),
            "actionName": term.functor,
            "params": tuple(render_term(a) for a in term.args),
        },
    )


def _header_to_term(value: BodyValue) -> Term:
    """Result-header conversion: text parses as a term, falling back to a string;
    numbers and sequences are lifted into the term space, and a term is used
    as it is."""
    if isinstance(value, str):
        try:
            return parse_term(value)
        except TermSyntaxError:
            return Str(value)
    if isinstance(value, (int, float, list, tuple) + TERM_TYPES):
        return body_to_term(value)
    raise UnparseableContentError(f"no term form for header value {value!r}")


def complete_sync_action(
    cfg: AgentEndpointConfig, reply: Exchange, term: ActionTerm
) -> ActionTerm:
    """Bind each mapped reply header onto the action term's arguments."""
    headers = (reply.out_msg or reply.in_msg).headers
    bound = term
    for header_name, index in cfg.result_header_map:
        if header_name not in headers:
            raise MissingResultHeaderError(header_name)
        bound = bind_argument(bound, index, _header_to_term(headers[header_name]))
    return bound


# --- producer operations --------------------------------------------------------


def _effective(x: Exchange, name: str, cfg_value):
    """The header ``name`` read by its parameter's parser, else ``cfg_value``."""
    if name in x.in_msg.headers:
        return _PARSERS.get(name, stringify)(x.in_msg.headers[name])
    return cfg_value


def _parse_content(x: Exchange) -> Literal:
    """The body as a literal: a literal term as it is, anything else parsed
    from its text."""
    body = x.in_msg.body
    if isinstance(body, (Atom, Compound)):
        return body
    text = stringify(body)
    try:
        term = parse_term(text)
    except TermSyntaxError as exc:
        raise UnparseableContentError(f"body is not a literal: {text!r}") from exc
    if not isinstance(term, (Atom, Compound)):
        raise UnparseableContentError(f"body is not a literal: {text!r}")
    return term


def produce_agent_message(container: AgentContainer, cfg: AgentEndpointConfig, x: Exchange) -> None:
    """Turn an exchange into agent messages for local inboxes.

    Headers override URI parameters field by field; the receiver defaults to
    broadcast and may be a comma-separated recipient list.
    """
    assert cfg.kind is EndpointKind.MESSAGE_PRODUCER
    illoc = _effective(x, "illoc_force", cfg.illoc_force)
    if not illoc:
        raise MissingIllocForceError("neither header nor parameter supplies illoc_force")
    sender = _effective(x, "sender", cfg.sender) or ""
    annotations = _effective(x, "annotations", cfg.annotations)
    content = _parse_content(x)
    msg_id = x.in_msg.headers.get("msg_id")
    for recipient in _effective(x, "receiver", cfg.receiver) or (BROADCAST,):
        msg = AgentMessage(
            illoc,
            sender,
            recipient,
            content,
            stringify(msg_id) if msg_id is not None else container.next_msg_id(),
            annotations,
        )
        container.deliver_local(msg)


def produce_percept(container: AgentContainer, cfg: AgentEndpointConfig, x: Exchange) -> None:
    """Turn an exchange into percepts, transient accumulate by default."""
    assert cfg.kind is EndpointKind.PERCEPT_PRODUCER
    receivers = _effective(x, "receiver", cfg.receiver) or (BROADCAST,)
    persistent = _effective(x, "persistent", cfg.persistent)
    mode = _effective(x, "updateMode", cfg.update_mode)
    annotations = _effective(x, "annotations", cfg.annotations)
    literal = _parse_content(x)
    if annotations:
        literal = dc_replace(literal, annotations=literal.annotations + annotations)
    container.deliver_percept(
        BROADCAST if receivers == (BROADCAST,) else receivers,
        literal,
        Persistence.PERSISTENT if persistent else Persistence.TRANSIENT,
        mode,
    )


# --- engine component -------------------------------------------------------------


class _AgentConsumer(_ChannelConsumer):
    """Registered with the container while the route runs; its offers feed
    one channel of deliveries, kept across a restart."""

    def __init__(self, container: AgentContainer, cfg: AgentEndpointConfig, engine: RouteEngine):
        if cfg.kind is EndpointKind.MESSAGE_CONSUMER:
            register = container.register_message_binding
        else:
            register = container.register_action_binding

        def bind() -> Channel:
            register(self)
            return self.channel

        super().__init__(bind, lambda channel: container.unregister_binding(self), lambda d: d)
        self.channel = Channel()  # before ``bind``: an offer may follow it at once
        self.cfg = cfg
        self.engine = engine

    def offer_message(self, msg: AgentMessage) -> bool:
        exchange = consume_agent_message(self.cfg, msg)
        if exchange is None:
            return False
        self.channel.put(Delivery(exchange))
        return True

    def offer_action(
        self,
        actor: AgentId,
        term: ActionTerm,
        mode: ActionMode,
        bound: Optional[Future] = None,
    ) -> Optional[Exchange]:
        """Queue the action's exchange, or return None when a selector rejects
        it.  ``bound``, for a synchronous action, is settled on this route's
        engine: with the term bound from a reply in time, else as timed out."""
        exchange = consume_agent_action(self.cfg, actor, term, mode)
        if exchange is None:
            return None
        reply = None
        if bound is not None:
            deadline = time.monotonic() + mode.timeout_ms / 1000.0
            reply = lambda outcome: self._settle(bound, term, deadline, outcome)
            self.engine.call_at(deadline, lambda: reply(None))
        self.channel.put(Delivery(exchange, reply))
        return exchange

    def _settle(self, bound: Future, term: ActionTerm, deadline: float, outcome) -> None:
        """Settle ``bound`` once, as timed out when ``outcome`` is None or late."""
        if bound.done():
            return
        try:
            if outcome is None or time.monotonic() >= deadline:
                raise ActionTimeoutError(render_term(term.literal))
            if isinstance(outcome, Exception):
                raise outcome
            bound.set_result(complete_sync_action(self.cfg, outcome, term))
        except Exception as exc:
            bound.set_exception(exc)


class _AgentProducer(Producer):
    def __init__(self, container: AgentContainer, cfg: AgentEndpointConfig):
        self.container = container
        self.cfg = cfg

    def process(self, exchange: Exchange) -> None:
        if self.cfg.kind is EndpointKind.MESSAGE_PRODUCER:
            produce_agent_message(self.container, self.cfg, exchange)
        else:
            produce_percept(self.container, self.cfg, exchange)


class AgentComponent(Component):
    """Endpoint factory bound to one agent container."""

    def __init__(self, container: AgentContainer):
        self.container = container

    def create_consumer(self, uri: EndpointUri, route) -> Consumer:
        cfg = AgentEndpointConfig.from_uri(uri, "consumer")
        return _AgentConsumer(self.container, cfg, route.engine)

    def create_producer(self, uri: EndpointUri, engine: RouteEngine, route_id: str) -> Producer:
        cfg = AgentEndpointConfig.from_uri(uri, "producer")
        return _AgentProducer(self.container, cfg)
