"""Route definitions and the execution engine.

A route consumes exchanges from one endpoint and runs each through an ordered
pipeline of steps (set-header/set-body, filter, multicast, split, aggregate,
idempotent-consumer, custom hooks), ending at producer endpoints.  Each
``RouteBuilder`` method records how to make its step; the route makes every
step once, as a callable that runs it on an exchange and says whether the
exchange goes on, so an exchange meets no dispatch on the step's kind.

Execution model: each engine runs one loop thread, ``<engine>-loop``, with a
FIFO run queue of turns and the deadlines of ``RouteEngine.call_at``.  It runs
a due call first, else the next turn: a route runs its consumer's backlog at
the turn's start, up to a due call, an agent one cycle; so routes, agents and
deadlines stay fair under load.  ``direct:`` producers run the target route's
pipeline inline on the caller's context; ``buffered:`` producers enqueue a
copy and return.  Each aggregate step makes its own bucket state when the
route makes its steps.  A bucket completes on its size or its timeout,
whichever comes first; a timed-out bucket is flushed on the loop, after a
``warning`` event that gives its key and size.  Either way the merged
exchange goes on as that route's own, which logs what fails (``_continue``).

Only the loop touches route state, aggregate buckets and the deadline heap,
so they have no lock; other threads get in through ``RouteEngine.submit``
(see ``RouteEngine.call``).  The one lock left is ``IdempotentRepository._lock``,
as a repository may serve several engines; the ``EventLog`` needs none (see
there).  An idle loop sleeps on the ``Event`` ``RouteEngine._wake``, and a
``call`` that waits on a ``Future``.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import re
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .expressions import (
    Expr,
    eval_expr,
    stringify,
    body_to_term,
    term_to_body,
    TypeMismatchError,
)
from .messages import (
    EndpointUri,
    Exchange,
    ExchangePattern,
    Message,
    RowSet,
    new_exchange,
    parse_uri,
)
from .terms import ListTerm, parse_term, quote, render_term

logger = logging.getLogger(__name__)

__all__ = [
    "Aggregate",
    "ListAppend",
    "SetUnion",
    "set_union",
    "IdempotentRepository",
    "RouteDefinition",
    "RouteBuilder",
    "RouteService",
    "RouteState",
    "RouteEngine",
    "EventLog",
    "EventRecord",
    "Component",
    "Channel",
    "Consumer",
    "Producer",
    "Delivery",
    "AggregateState",
    "split_exchange",
    "transform_rows_to_quoted_list",
    "UnknownSchemeError",
    "EndpointInitError",
    "InvalidTransitionError",
    "RouteConfigError",
    "MissingColumnError",
    "ClosedCorrelationKeyError",
]


class UnknownSchemeError(KeyError):
    pass


class EndpointInitError(RuntimeError):
    pass


class InvalidTransitionError(RuntimeError):
    pass


class RouteConfigError(ValueError):
    pass


class MissingColumnError(KeyError):
    pass


class ClosedCorrelationKeyError(RuntimeError):
    """An exchange arrived under the key of a bucket that timed out."""


# --- aggregation -----------------------------------------------------------------


@dataclass(frozen=True)
class Aggregate:
    """Correlate exchanges into buckets and merge each bucket once it holds
    ``completion_size`` exchanges or is ``completion_timeout_ms`` old,
    whichever comes first: with both, the size is the normal completion and
    the timeout the fallback that merges what has arrived."""

    correlation: Expr
    strategy: "AggregationStrategy"
    completion_size: Union[int, Expr, None] = None
    completion_timeout_ms: Optional[int] = None

    def __post_init__(self):
        if self.completion_size is None and self.completion_timeout_ms is None:
            raise RouteConfigError("aggregate needs a completion size or timeout")


class AggregationStrategy:
    """Merges one completed bucket.  The bucket's exchanges are dropped once
    merged, so a merge reuses their bodies and header values uncopied."""

    def merge(self, exchanges: list[Exchange]) -> Exchange:
        raise NotImplementedError


class ListAppend(AggregationStrategy):
    """Collect the bodies into a tuple, arrival order preserved; headers from the first."""

    def merge(self, exchanges: list[Exchange]) -> Exchange:
        first = exchanges[0]
        return new_exchange(
            first.pattern, tuple(x.in_msg.body for x in exchanges), first.in_msg.headers
        )


class SetUnion(AggregationStrategy):
    """The ``set_union`` of the bodies; headers from the first."""

    def merge(self, exchanges: list[Exchange]) -> Exchange:
        first = exchanges[0]
        return new_exchange(
            first.pattern, set_union(x.in_msg.body for x in exchanges), first.in_msg.headers
        )


# A character that sorts at or below the closing quote, or is escaped.
_REORDERED_BY_QUOTING = re.compile(r'[\x00-"\\]')


def set_union(bodies: Iterable) -> tuple:
    """The set union of the elements of sequence bodies; a text body is parsed
    as a term list.

    The union is ordered by each element's rendered term text, so any
    permutation of the same bodies produces an identical union.  When every
    element is text and none holds a character up to ``"`` or a ``\\``,
    quoting cannot reorder them, so they are sorted by themselves.
    """
    elements: set = set()
    for b in bodies:
        if isinstance(b, str):
            t = parse_term(b)
            if not isinstance(t, ListTerm):
                raise TypeMismatchError(f"set-union body is not a list: {b!r}")
            b = tuple(term_to_body(el) for el in t.elements)
        elif not isinstance(b, (list, tuple)):
            raise TypeMismatchError(f"set-union body is not a list: {b!r}")
        elements.update(b)
    try:
        plain = _REORDERED_BY_QUOTING.search("".join(elements)) is None
    except TypeError:  # an element that is not text
        plain = False
    return tuple(sorted(elements) if plain else sorted(elements, key=_term_text))


def _term_text(value) -> str:
    """The rendered term text of a body value, quoting text directly."""
    return quote(value) if isinstance(value, str) else render_term(body_to_term(value))


class IdempotentRepository:
    """Insertion-ordered set of seen keys, evicting the oldest beyond capacity."""

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._seen: OrderedDict[str, None] = OrderedDict()
        self._lock = threading.Lock()

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._seen

    def add(self, key: str) -> None:
        with self._lock:
            self._seen[key] = None
            while len(self._seen) > self.capacity:
                self._seen.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)


# --- definitions and builder ------------------------------------------------------


# ``make(route, i)`` makes step ``i`` of ``route``: a callable that runs the
# step on an exchange and returns whether the exchange goes on to step i + 1.
Step = Callable[[Exchange], bool]
StepMaker = Callable[["RouteService", int], Step]


@dataclass(frozen=True)
class RouteDefinition:
    route_id: str
    from_uri: EndpointUri
    steps: tuple[StepMaker, ...] = ()


class RouteBuilder:
    """Fluent construction of route definitions.

    ::

        rb = RouteBuilder()
        (rb.from_("direct:ask", route_id="ask")
           .set_header("receiver", constant("all"))
           .to("agent:message?illoc_force=achieve"))
        engine.add_routes(rb)
    """

    def __init__(self):
        self._routes: list[tuple[str, EndpointUri, list[StepMaker]]] = []
        self._anon = 0

    def from_(self, uri: str, route_id: Optional[str] = None) -> "RouteBuilder":
        if route_id is None:
            self._anon += 1
            route_id = f"route-{self._anon}"
        self._routes.append((route_id, parse_uri(uri), []))
        return self

    def _add(self, make: StepMaker) -> "RouteBuilder":
        if not self._routes:
            raise RouteConfigError("call from_() before adding steps")
        self._routes[-1][2].append(make)
        return self

    def set_header(self, name: str, value: Expr) -> "RouteBuilder":
        def step(x: Exchange) -> bool:
            x.in_msg.headers[name] = eval_expr(value, x)
            return True

        return self._add(lambda route, i: step)

    def set_body(self, value: Expr) -> "RouteBuilder":
        def step(x: Exchange) -> bool:
            x.in_msg.body = eval_expr(value, x)
            return True

        return self._add(lambda route, i: step)

    def filter_equals(self, value: Expr, text: str) -> "RouteBuilder":
        """Pass the exchange only when the expression's text equals ``text``."""

        def make(route: RouteService, i: int) -> Step:
            def step(x: Exchange) -> bool:
                return stringify(eval_expr(value, x)) == text or route._drop(x, "filtered")

            return step

        return self._add(make)

    def to(self, *uris: str) -> "RouteBuilder":
        def make(route: RouteService, i: int) -> Step:
            for uri in uris:
                route._producers.setdefault(uri, None)  # made at start

            def step(x: Exchange) -> bool:
                route._dispatch(uris, x)
                return True

            return step

        return self._add(make)

    def split(self, value: Expr) -> "RouteBuilder":
        def make(route: RouteService, i: int) -> Step:
            def step(x: Exchange) -> bool:
                for child in split_exchange(x, value):
                    route._run(child, i + 1)
                return False

            return step

        return self._add(make)

    def aggregate(self, correlation: Expr, strategy: AggregationStrategy) -> "_AggregateSpec":
        return _AggregateSpec(self, correlation, strategy)

    def idempotent_consumer(self, key: Expr, repo: IdempotentRepository) -> "RouteBuilder":
        def make(route: RouteService, i: int) -> Step:
            def step(x: Exchange) -> bool:
                seen = stringify(eval_expr(key, x))
                if repo.contains(seen):
                    return route._drop(x, f"duplicate {seen}")
                repo.add(seen)
                return True

            return step

        return self._add(make)

    def transform_rows_to_quoted_list(self, column: str) -> "RouteBuilder":
        """Turn a row-set body into the list of one column's values."""
        return self.process(lambda x: transform_rows_to_quoted_list(x, column))

    def process(self, fn: Callable[[Exchange], None]) -> "RouteBuilder":
        def step(x: Exchange) -> bool:
            fn(x)
            return True

        return self._add(lambda route, i: step)

    def definitions(self) -> list[RouteDefinition]:
        return [RouteDefinition(rid, uri, tuple(steps)) for rid, uri, steps in self._routes]


class _AggregateSpec:
    def __init__(self, builder: RouteBuilder, correlation: Expr, strategy: AggregationStrategy):
        self._builder = builder
        self._correlation = correlation
        self._strategy = strategy

    def completion_size(self, size: Union[int, Expr]) -> RouteBuilder:
        return self._add(Aggregate(self._correlation, self._strategy, size, None))

    def completion_timeout(self, ms: int, size: Union[int, Expr, None] = None) -> RouteBuilder:
        """Complete on the timeout, or on ``size`` exchanges if that comes first."""
        return self._add(Aggregate(self._correlation, self._strategy, size, ms))

    def _add(self, config: Aggregate) -> RouteBuilder:
        def make(route: RouteService, i: int) -> Step:
            # The exchange that fills a bucket ends here; a merged bucket goes
            # on from step i + 1 as the route's own (``_continue``).
            state = AggregateState(
                config,
                lambda when: route.engine.call_at(when, lambda: route._flush_expired(state, i)),
                route._log_failure,
                route._log_timeout,
            )
            route._aggregates.append(state)

            def step(x: Exchange) -> bool:
                try:
                    merged = state.offer(x)
                except ClosedCorrelationKeyError:
                    return route._drop(x, "late reply")
                if merged is not None:
                    route._continue(merged, i + 1)
                return False

            return step

        return self._builder._add(make)


# --- event log -------------------------------------------------------------------


class EventRecord(NamedTuple):
    ts: float  # wall clock, ``time.time()``
    route_id: str
    event: str
    exchange_id: str
    detail: str

    def line(self) -> str:
        """The record as one log line: a newline in the detail becomes a space."""
        detail = self.detail.replace("\n", " ").replace("\r", " ")
        return f"{self.ts:.6f} {self.route_id} {self.event} {self.exchange_id} {detail}"


class EventLog:
    """Append-only structured log: one record per endpoint receive/send,
    processor error, drop, or lifecycle change.  No lock: the log only grows, and
    ``list.append`` and ``list(list)`` are each one C call under the GIL."""

    def __init__(self):
        self._records: list[EventRecord] = []
        self._created = time.time()

    def emit(self, route_id: str, event: str, exchange_id: str = "-", detail: str = "") -> None:
        rec = (time.time(), route_id, event, exchange_id, detail)
        self._records.append(tuple.__new__(EventRecord, rec))  # skips the generated __new__

    @property
    def last_activity(self) -> float:
        """The wall-clock stamp of the last record, or the log's creation time."""
        return self._records[-1].ts if self._records else self._created

    def records(self) -> list[EventRecord]:
        return list(self._records)

    def events(self, event: Optional[str] = None, route_id: Optional[str] = None) -> list[EventRecord]:
        # Bounded by the length read first: a snapshot, as ``records()`` is.
        return [
            r
            for r in itertools.islice(self._records, len(self._records))
            if (event is None or r.event == event) and (route_id is None or r.route_id == route_id)
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(rec.line() + "\n")


# --- endpoint SPI ------------------------------------------------------------------


@dataclass
class Delivery:
    exchange: Exchange
    # Gets the final exchange or the exception that failed it; must not raise.
    reply: Optional[Callable[[Union[Exchange, Exception]], None]] = None


class Consumer:
    """Source of deliveries for a route (an Event-Driven Consumer).

    ``start(ready)`` hands over the route's ``ready``, which the consumer calls,
    from any thread, whenever a delivery may have arrived.  ``poll()`` never
    blocks: it returns the next delivery or None.  A consumer fed inline by
    its producers (``direct:``) has nothing to poll.  A stopped route stays a
    listener: its ``ready`` costs the loop one idle turn, and a restart hands
    over an equal ``ready``, which a listener set holds once.  ``backlog()``,
    read after a turn's first poll, is how many more polls that turn makes.
    """

    def start(self, ready: Callable[[], None]) -> None:
        pass

    def stop(self) -> None:
        pass

    def poll(self) -> Optional[Delivery]:
        return None

    def backlog(self) -> int:
        return 0


class Producer:
    """Destination for exchanges; ``process`` may mutate the exchange in place."""

    def process(self, exchange: Exchange) -> None:
        raise NotImplementedError


class Component:
    """Factory for the endpoints of one URI scheme."""

    def create_consumer(self, uri: EndpointUri, route: "RouteService") -> Consumer:
        raise EndpointInitError(f"{uri.scheme}: does not support consumers")

    def create_producer(self, uri: EndpointUri, engine: "RouteEngine", route_id: str) -> Producer:
        raise EndpointInitError(f"{uri.scheme}: does not support producers")


class Channel:
    """An unbounded FIFO of ``items`` that calls each of its listeners after
    every put, from any thread.

    A route listens with its ``ready`` and takes, per turn, the items present
    at the turn's start.  Its loop may also fill it, from a step or an agent
    cycle, so it has no bound to wait on; and no step or cycle waits for work
    on its own engine, since only the loop that waits could do that work.
    """

    def __init__(self):
        self.items: deque = deque()
        self.listeners: list[Callable[[], None]] = []

    def listen(self, ready: Callable[[], None]) -> None:
        """Once per route: a restart hands over an equal ``ready``."""
        if ready not in self.listeners:
            self.listeners.append(ready)

    def put(self, item) -> None:
        self.items.append(item)
        for ready in self.listeners:
            ready()

    def take(self):
        """The next item, or None when the channel is empty; never blocks."""
        try:
            return self.items.popleft()
        except IndexError:
            return None


class _ChannelConsumer(Consumer):
    """Feeds a route from a channel: ``acquire()`` gets the channel at each
    start, ``release(channel)`` gives it back at stop, and ``to_delivery``
    makes each item a delivery (by default, the item is the exchange)."""

    def __init__(
        self,
        acquire: Callable[[], Channel],
        release: Callable[[Channel], None] = lambda channel: None,
        to_delivery: Callable[[object], Delivery] = Delivery,
    ):
        self._acquire = acquire
        self._release = release
        self._to_delivery = to_delivery
        self.channel: Optional[Channel] = None

    def start(self, ready: Callable[[], None]) -> None:
        self.channel = self._acquire()
        self.channel.listen(ready)

    def stop(self) -> None:
        self._release(self.channel)

    def poll(self) -> Optional[Delivery]:
        item = self.channel.take()
        return None if item is None else self._to_delivery(item)

    def backlog(self) -> int:
        return len(self.channel.items)


# Engine-internal endpoints.  ``direct:`` invokes the target route inline on
# the caller's context; ``buffered:`` enqueues a copy and returns immediately.


class _DirectComponent(Component):
    def create_consumer(self, uri: EndpointUri, route: "RouteService") -> Consumer:
        return _DirectConsumer(uri.path, route)

    def create_producer(self, uri: EndpointUri, engine: "RouteEngine", route_id: str) -> Producer:
        return _DirectProducer(uri.path, engine)


class _DirectConsumer(Consumer):
    def __init__(self, name: str, route: "RouteService"):
        self.name = name
        self.route = route

    def start(self, ready: Callable[[], None]) -> None:
        self.route.engine._register_direct(self.name, self.route)

    def stop(self) -> None:
        self.route.engine._unregister_direct(self.route)


class _DirectProducer(Producer):
    def __init__(self, name: str, engine: "RouteEngine"):
        self.name = name
        self.engine = engine

    def process(self, exchange: Exchange) -> None:
        target = self.engine._direct.get(self.name)
        if target is None:
            raise EndpointInitError(f"no route consumes direct:{self.name}")
        target.process_inline(exchange)


class _BufferedComponent(Component):
    def create_consumer(self, uri: EndpointUri, route: "RouteService") -> Consumer:
        channel = route.engine._buffer(uri.path)
        return _ChannelConsumer(lambda: channel)

    def create_producer(self, uri: EndpointUri, engine: "RouteEngine", route_id: str) -> Producer:
        return _BufferedProducer(engine._buffer(uri.path))


class _BufferedProducer(Producer):
    def __init__(self, channel: Channel):
        self._channel = channel

    def process(self, exchange: Exchange) -> None:
        self._channel.put(exchange.copy())


# --- pipeline operations (also usable standalone) -----------------------------------


def split_exchange(x: Exchange, e: Expr) -> list[Exchange]:
    """One child exchange per element of the evaluated collection.

    Children get their own header dict, sharing the parent's values, plus
    ``split.index`` / ``split.size`` headers; the child body is the element.
    """
    value = eval_expr(e, x)
    if isinstance(value, RowSet):
        elements: tuple = tuple(RowSet(value.columns, (row,)) for row in value.rows)
    elif isinstance(value, (list, tuple)):
        elements = tuple(value)
    else:
        raise TypeMismatchError(f"split over non-collection value {value!r}")
    children = []
    for i, el in enumerate(elements):
        child = new_exchange(x.pattern, el, x.in_msg.headers)
        child.in_msg.headers["split.index"] = i
        child.in_msg.headers["split.size"] = len(elements)
        children.append(child)
    return children


def transform_rows_to_quoted_list(x: Exchange, column: str) -> Exchange:
    """Replace a row-set body with the tuple of one column's values, row order
    preserved; its text form is the quoted-string list, e.g. ``["a@x","b@x"]``."""
    b = x.in_msg.body
    if not isinstance(b, RowSet):
        raise TypeMismatchError(f"body is not a row set: {b!r}")
    if column not in b.columns:
        raise MissingColumnError(column)
    x.in_msg.body = tuple(row[column] for row in b.rows)
    return x


class _Bucket:
    __slots__ = ("first_monotonic", "exchanges")

    def __init__(self):
        self.first_monotonic = time.monotonic()
        self.exchanges: list[Exchange] = []


class AggregateState:
    """Correlation buckets for one aggregate step of one route, in opening
    order.  A timed step keeps one flush pending, at the deadline of its
    oldest bucket, and hands it to ``schedule``; a bucket completed by size
    leaves that flush nothing to do.  The key of a timed-out bucket is closed
    for one more timeout, so a late exchange under it is refused rather than
    opening a second bucket.  A merge that raises gives its first exchange and
    error to ``fail``, if set; a timed-out bucket gives its key and exchanges
    to ``timed_out``, if set, before its merge.  Every offer and flush runs on
    the route's loop."""

    def __init__(
        self,
        step: Aggregate,
        schedule: Callable[[float], None] = lambda when: None,
        fail: Optional[Callable[[Exchange, Exception], None]] = None,
        timed_out: Optional[Callable[[str, list[Exchange]], None]] = None,
    ):
        self.step = step
        self.schedule = schedule
        self.fail = fail
        self.timed_out = timed_out
        self.buckets: OrderedDict[str, _Bucket] = OrderedDict()
        self.closed: OrderedDict[str, float] = OrderedDict()  # key -> when it reopens
        self.deadline: Optional[float] = None  # of the pending flush

    def offer(self, x: Exchange) -> Optional[Exchange]:
        """Add ``x`` to its bucket; the merged bucket once it is complete, else
        None.  Raises ``ClosedCorrelationKeyError`` for a late exchange."""
        key = stringify(eval_expr(self.step.correlation, x))
        if self.closed:
            self._reopen(time.monotonic())
            if key in self.closed:
                raise ClosedCorrelationKeyError(key)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Bucket()
            self._arm()
        bucket.exchanges.append(x)
        size = self.step.completion_size
        if size is not None:
            if isinstance(size, Expr):
                size = int(eval_expr(size, x))  # type: ignore[arg-type]
            if len(bucket.exchanges) >= int(size):
                del self.buckets[key]
                return self._merge(bucket.exchanges)
        return None

    def flush_expired(self) -> list[Exchange]:
        if self.step.completion_timeout_ms is None:
            return []
        timeout_s = self.step.completion_timeout_ms / 1000.0
        now = time.monotonic()
        if self.deadline is not None and self.deadline <= now:
            self.deadline = None  # this is the pending flush
        merged = []
        # Opening order is deadline order: stop at the first open bucket.
        while self.buckets:
            key, bucket = next(iter(self.buckets.items()))
            if bucket.first_monotonic + timeout_s > now:
                break
            del self.buckets[key]
            self.closed[key] = now + timeout_s
            if self.timed_out is not None:
                self.timed_out(key, bucket.exchanges)
            if (x := self._merge(bucket.exchanges)) is not None:
                merged.append(x)
        self._reopen(now)
        self._arm()
        return merged

    def _merge(self, exchanges: list[Exchange]) -> Optional[Exchange]:
        try:
            return self.step.strategy.merge(exchanges)
        except Exception as exc:
            if self.fail is None:
                raise
            self.fail(exchanges[0], exc)

    def _arm(self) -> None:
        """Schedule the oldest bucket's flush unless a flush is pending."""
        if self.deadline is None and self.buckets and self.step.completion_timeout_ms is not None:
            oldest = next(iter(self.buckets.values()))
            self.deadline = oldest.first_monotonic + self.step.completion_timeout_ms / 1000.0
            self.schedule(self.deadline)

    def _reopen(self, now: float) -> None:
        """Forget the closed keys whose time is up, oldest first."""
        while self.closed and next(iter(self.closed.values())) <= now:
            self.closed.popitem(last=False)


# --- route service ----------------------------------------------------------------


class RouteState(Enum):
    STOPPED = "Stopped"
    STARTED = "Started"
    SUSPENDED = "Suspended"


class RouteService:
    def __init__(self, engine: "RouteEngine", definition: RouteDefinition):
        self.engine = engine
        self.definition = definition
        self.route_id = definition.route_id
        self.state = RouteState.STOPPED
        self._consumer: Optional[Consumer] = None
        # The ``to`` steps' URIs, each with its producer once the route started.
        self._producers: dict[str, Optional[Producer]] = {}
        self._aggregates: list[AggregateState] = []  # one per aggregate step
        self._steps = tuple(make(self, i) for i, make in enumerate(definition.steps))
        self._queued = False

    # -- lifecycle --

    def start(self) -> None:
        # On the caller's thread: no turn touches a stopped route.
        if self.state is not RouteState.STOPPED:
            raise InvalidTransitionError(f"{self.route_id}: start from {self.state.value}")
        self._init_endpoints()
        self._consumer.start(self._ready)
        self.state = RouteState.STARTED
        # A deadline that passed while the route was stopped flushed nothing.
        for agg in self._aggregates:
            if agg.buckets:
                agg.schedule(time.monotonic())
        self._ready()
        self.engine.log.emit(self.route_id, "lifecycle", detail="started")

    def suspend(self) -> None:
        self._transition("suspend", (RouteState.STARTED,), RouteState.SUSPENDED, "suspended")

    def resume(self) -> None:
        self._transition("resume", (RouteState.SUSPENDED,), RouteState.STARTED, "resumed")

    def stop(self) -> None:
        started = (RouteState.STARTED, RouteState.SUSPENDED)
        self._transition("stop", started, RouteState.STOPPED, "stopped")

    def _transition(self, verb: str, allowed: tuple, to: RouteState, done: str) -> None:
        """Change state in a loop turn; a caller off the loop waits it out."""

        def turn() -> None:
            if self.state not in allowed:
                raise InvalidTransitionError(f"{self.route_id}: {verb} from {self.state.value}")
            self.state = to
            if to is RouteState.STOPPED:
                self._consumer.stop()
            elif to is RouteState.STARTED:
                self._ready()
            self.engine.log.emit(self.route_id, "lifecycle", detail=done)

        self.engine.call(turn, wait=True)

    def _init_endpoints(self) -> None:
        # Producers first: a start that failed on one is completed by the next.
        for text, producer in self._producers.items():
            if producer is None:
                uri = parse_uri(text)
                comp = self.engine.component(uri.scheme)
                self._producers[text] = comp.create_producer(uri, self.engine, self.route_id)
        if self._consumer is None:
            uri = self.definition.from_uri
            component = self.engine.component(uri.scheme)
            self._consumer = component.create_consumer(uri, self)

    # -- execution --

    def _ready(self) -> None:
        """Put the route on its engine's run queue unless it is there (any thread).

        The flag is set just before the put and through a turn that delivered,
        which puts the route back, and cleared just before the turn's first
        poll; two racing callers at worst queue the route twice, an idle turn."""
        if not self._queued:
            self._queued = True
            self.engine.submit(self._step)

    def _step(self) -> None:
        """One loop turn: the first poll and ``backlog()`` more, until the route
        leaves STARTED, a poll gives nothing or a call is due; then queue again."""
        self._queued = False
        if self.state is not RouteState.STARTED:
            return  # suspended or stopped: a resume or start readies it again
        delivery = self._poll()
        if delivery is None:
            return  # off the queue until its consumer or a resume readies it
        self._queued = True  # a ready during the turn waits for its end
        try:
            left = self._consumer.backlog()
            while delivery is not None:
                self.process(delivery.exchange, delivery.reply)
                if not left or self.state is not RouteState.STARTED or self.engine._due_now():
                    break
                left -= 1
                delivery = self._poll()
        finally:
            self.engine.submit(self._step)

    def _poll(self) -> Optional[Delivery]:
        try:
            return self._consumer.poll()
        except Exception:
            logger.exception("route %s: consumer poll failed", self.route_id)
            self.engine.log.emit(self.route_id, "error", detail="consumer poll failed")
            return None

    def process(self, exchange: Exchange, reply: Optional[Callable] = None) -> None:
        try:
            outcome: Union[Exchange, Exception] = self._receive(exchange)
        except Exception as exc:
            self._log_failure(exchange, exc)
            outcome = exc
        if reply is not None:
            reply(outcome)

    def process_inline(self, exchange: Exchange) -> None:
        """Run the pipeline on the caller's context (``direct:`` semantics)."""
        if self.state is not RouteState.STARTED:
            raise EndpointInitError(f"direct target {self.route_id} is {self.state.value}")
        self._receive(exchange)

    def _receive(self, x: Exchange) -> Exchange:
        self.engine.log.emit(self.route_id, "receive", x.id)
        self._run(x, 0)
        if x.pattern is ExchangePattern.IN_OUT:
            # The route is done with the exchange: the reply shares its body.
            x.out_msg = Message(dict(x.in_msg.headers), x.in_msg.body)
        return x

    def _log_failure(self, x: Exchange, exc: Exception) -> None:
        logger.debug("route %s: exchange %s failed", self.route_id, x.id, exc_info=exc)
        self.engine.log.emit(self.route_id, "error", x.id, detail=repr(exc))

    def _log_timeout(self, key: str, held: list[Exchange]) -> None:
        """One ``warning`` per timed-out bucket: a timeout is not a completion."""
        detail = f"bucket {key} timed out holding {len(held)}"
        self.engine.log.emit(self.route_id, "warning", held[0].id, detail)

    def _run(self, x: Exchange, i: int) -> None:
        """Run the route's steps on ``x`` from index ``i`` until ``x`` ends."""
        steps = self._steps
        while i < len(steps) and steps[i](x):
            i += 1

    def _drop(self, x: Exchange, reason: str) -> bool:
        """Log that ``x`` ends here; False, so a step can return it."""
        self.engine.log.emit(self.route_id, "drop", x.id, detail=reason)
        return False

    def _dispatch(self, uris: tuple[str, ...], x: Exchange) -> None:
        if len(uris) == 1:
            self._send(uris[0], x)
            return
        # Multicast: sequential, each destination on a copy; the first failing
        # destination fails the exchange after the others ran.
        first_error: Optional[Exception] = None
        for uri in uris:
            try:
                self._send(uri, x.copy())
            except Exception as exc:
                logger.debug("route %s: multicast to %s failed", self.route_id, uri, exc_info=exc)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def _send(self, uri: str, x: Exchange) -> None:
        producer = self._producers[uri]  # made at start
        self.engine.log.emit(self.route_id, "send", x.id, detail=uri)
        producer.process(x)

    def _flush_expired(self, state: AggregateState, index: int) -> None:
        """Send the expired buckets of ``state``, the aggregate at ``index``, on."""
        if self.state is RouteState.STOPPED:
            return
        for merged in state.flush_expired():
            self._continue(merged, index + 1)

    def _continue(self, merged: Exchange, i: int) -> None:
        """Run a merged exchange from step ``i`` on as this route's own."""
        try:
            self._run(merged, i)
        except Exception as exc:
            self._log_failure(merged, exc)


# --- engine -----------------------------------------------------------------------


class RouteEngine:
    """Holds components and routes; one engine per agent container."""

    def __init__(self, log: Optional[EventLog] = None, name: str = "engine"):
        self.name = name
        self.log = log or EventLog()
        self._components: dict[str, Component] = {
            "direct": _DirectComponent(),
            "buffered": _BufferedComponent(),
        }
        self._services: dict[str, RouteService] = {}
        self._direct: dict[str, RouteService] = {}
        self._buffers: dict[str, Channel] = {}
        self._loop: Optional[threading.Thread] = None
        self._loop_ident: Optional[int] = None  # of the running loop thread
        self._runnable: deque[Callable[[], None]] = deque()
        self._due: list[tuple[float, int, Callable[[], None]]] = []  # heap
        self._due_seq = itertools.count()
        self._asleep = False
        self._wake = threading.Event()
        self._shutdown = False

    # -- configuration --

    def add_component(self, scheme: str, component: Component) -> None:
        self._components[scheme] = component

    def component(self, scheme: str) -> Component:
        comp = self._components.get(scheme)
        if comp is None:
            raise UnknownSchemeError(scheme)
        return comp

    def add_routes(self, builder: RouteBuilder, start: bool = True) -> list[RouteService]:
        return [self.run_route(d) if start else self.add_route(d) for d in builder.definitions()]

    def add_route(self, definition: RouteDefinition) -> RouteService:
        service = RouteService(self, definition)
        if self._services.setdefault(definition.route_id, service) is not service:
            raise RouteConfigError(f"duplicate route id {definition.route_id!r}")
        return service

    def run_route(self, definition: RouteDefinition) -> RouteService:
        service = self.add_route(definition)
        self._start_loop()
        service.start()
        return service

    def controller(self, route_id: str) -> RouteService:
        return self._services[route_id]

    def start(self) -> None:
        self._start_loop()
        for service in list(self._services.values()):
            if service.state is RouteState.STOPPED:
                service.start()

    def stop(self) -> None:
        """Stop the started routes and end the loop, in one turn."""
        self.call(self._stop, wait=True)
        if self._loop is not None and self._loop is not threading.current_thread():
            self._loop.join(timeout=1.0)

    def _stop(self) -> None:
        self._shutdown = True  # the loop ends after this turn
        for service in list(self._services.values()):
            if service.state is not RouteState.STOPPED:
                service.stop()

    # -- the way in from other threads --

    def submit(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` as one turn on the loop, after the turns queued before it.
        The one thread-safe entry: it wakes the loop only if the loop sleeps."""
        self._runnable.append(fn)
        if self._asleep:
            self._wake.set()

    def call(self, fn: Callable[[], object], wait: bool = False):
        """Run ``fn`` now on the loop thread or while no loop runs, else
        ``submit`` it; with ``wait``, the caller waits for that turn and gets
        what ``fn`` returned or raised.  ``call_at``, ``send``, ``stop`` and
        a route's lifecycle changes but ``start`` go through here."""
        if self._loop_ident in (None, threading.get_ident()):
            return fn()
        if not wait:
            return self.submit(fn)
        done: Future = Future()

        def turn() -> None:
            try:
                done.set_result(fn())
            except Exception as exc:
                done.set_exception(exc)

        self.submit(turn)
        return done.result()

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop once ``time.monotonic()`` reaches ``when``."""
        self.call(lambda: heapq.heappush(self._due, (when, next(self._due_seq), fn)))

    def _due_now(self) -> bool:  # on the loop only
        return bool(self._due) and self._due[0][0] <= time.monotonic()

    # -- plumbing used by endpoints --

    def send(self, uri_text: str, exchange: Exchange) -> None:
        """Send an exchange straight to a producer endpoint (no owning route),
        on the loop."""
        uri = parse_uri(uri_text)
        producer = self.component(uri.scheme).create_producer(uri, self, "-")
        self.log.emit("-", "send", exchange.id, detail=uri_text)
        self.call(lambda: producer.process(exchange), wait=True)

    def _register_direct(self, name: str, route: RouteService) -> None:
        current = self._direct.get(name)
        if current is not None and current is not route:
            raise RouteConfigError(f"direct:{name} already consumed by {current.route_id}")
        self._direct[name] = route

    def _unregister_direct(self, route: RouteService) -> None:
        for name, svc in list(self._direct.items()):
            if svc is route:
                del self._direct[name]

    def _buffer(self, name: str) -> Channel:
        channel = self._buffers.get(name)
        if channel is None:
            channel = self._buffers.setdefault(name, Channel())
        return channel

    def _start_loop(self) -> None:
        if self._loop is None or not self._loop.is_alive():
            self._shutdown = False
            self._loop = threading.Thread(
                target=self._run_loop, name=f"{self.name}-loop", daemon=True
            )
            self._loop.start()
            self._loop_ident = self._loop.ident  # the loop sets it too, first thing

    def _run_loop(self) -> None:
        self._loop_ident = threading.get_ident()
        runnable, due = self._runnable, self._due
        try:
            while not self._shutdown:
                if self._due_now():
                    fn = heapq.heappop(due)[2]
                elif runnable:
                    fn = runnable.popleft()
                else:
                    self._asleep = True  # a submit after the look below wakes it
                    if not runnable:
                        self._wake.wait(due[0][0] - time.monotonic() if due else None)
                    self._asleep = False
                    self._wake.clear()
                    continue
                try:
                    fn()
                except Exception:
                    logger.exception("engine %s: loop turn failed", self.name)
                    self.log.emit(self.name, "error", detail="loop turn failed")
        finally:
            self._loop_ident = None
