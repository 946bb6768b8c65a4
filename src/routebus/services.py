"""In-process simulated external services and their endpoint components.

* ``broker:queue:NAME`` / ``broker:topic:NAME`` -- message broker.  A queue
  message goes to exactly one consumer; a topic message is copied to every
  current subscriber.  The ``broker.destination`` header overrides the
  destination name in the URI.  A term body crosses the broker as its
  canonical text, as it would between processes.
* ``coord://SERVER/PATH?...`` -- coordination tree with persistent, ephemeral
  and ephemeral-sequential nodes, sessions, and child watches.
* ``mail:ACCOUNT?delete=&copyTo=`` (consumer) and ``mailto:ACCOUNT``
  (producer) -- mail store with per-account folders.  A delivered mail is
  stored once, and each distinct recipient's inbox holds it once.  A poll
  takes at most ``MAIL_POLL_LIMIT`` unread mails; the rest stay unread.
* ``table:DATASOURCE`` -- table store answering ``SELECT col[, col] FROM t``.
* ``timer:NAME?delay=&period=`` -- emits empty exchanges on a schedule.

``BrokerService``, ``CoordService`` (an ``RLock``: ``create`` makes parents
through itself), ``MailStore`` and ``TableStore`` each keep a ``_lock`` on
their own state, as every engine and the threads feeding a scenario share
them; a broker queue itself is a lock-free ``Channel``.
"""

from __future__ import annotations

import itertools
import logging
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .expressions import stringify
from .messages import EndpointUri, Exchange, ExchangePattern, RowSet, new_exchange
from .routing import Channel, Component, Consumer, Delivery, EventLog, Producer, RouteEngine
from .routing import _ChannelConsumer
from .terms import TERM_TYPES, Compound, ListTerm, Str, parse_term, render_term

logger = logging.getLogger(__name__)

__all__ = [
    "BrokerService",
    "BrokerComponent",
    "CoordService",
    "CoordSession",
    "CoordNode",
    "CreateMode",
    "CoordComponent",
    "MailMessage",
    "MailStore",
    "MailComponent",
    "MailtoComponent",
    "Table",
    "TableStore",
    "TableComponent",
    "TimerComponent",
    "NodeExistsError",
    "NoNodeError",
    "NoParentError",
    "SessionExpiredError",
    "UnknownAccountError",
    "MissingRecipientsError",
    "UnsupportedSqlError",
    "UnknownTableError",
    "UnknownColumnError",
    "DESTINATION_HEADER",
]

# Header that overrides a broker producer's destination name.
DESTINATION_HEADER = "broker.destination"


class NodeExistsError(ValueError):
    pass


class NoNodeError(KeyError):
    pass


class NoParentError(KeyError):
    pass


class SessionExpiredError(RuntimeError):
    pass


class UnknownAccountError(KeyError):
    pass


class MissingRecipientsError(ValueError):
    pass


class UnsupportedSqlError(ValueError):
    pass


class UnknownTableError(KeyError):
    pass


class UnknownColumnError(KeyError):
    pass


# --- message broker ---------------------------------------------------------------


class BrokerService:
    def __init__(self):
        self._queues: dict[str, Channel] = {}
        self._topics: dict[str, list[Channel]] = {}
        self._lock = threading.Lock()

    def queue(self, name: str) -> Channel:
        with self._lock:
            q = self._queues.get(name)
            if q is None:
                q = Channel()
                self._queues[name] = q
            return q

    def send_queue(self, name: str, exchange: Exchange) -> None:
        self.queue(name).put(exchange.copy())

    def subscribe_topic(self, name: str) -> Channel:
        q = Channel()
        with self._lock:
            self._topics.setdefault(name, []).append(q)
        return q

    def unsubscribe_topic(self, name: str, q: Channel) -> None:
        with self._lock:
            subs = self._topics.get(name, [])
            if q in subs:
                subs.remove(q)

    def send_topic(self, name: str, exchange: Exchange) -> None:
        with self._lock:
            subs = list(self._topics.get(name, []))
        for q in subs:
            q.put(exchange.copy())


def _broker_destination(uri: EndpointUri) -> tuple[str, str]:
    kind, _, name = uri.path.partition(":")
    if kind not in ("queue", "topic") or not name:
        raise ValueError(f"broker destination must be queue:NAME or topic:NAME, got {uri.path!r}")
    return kind, name


class _BrokerProducer(Producer):
    def __init__(self, service: BrokerService, kind: str, name: str):
        self._service = service
        self._kind = kind
        self._name = name

    def process(self, exchange: Exchange) -> None:
        name = self._name
        override = exchange.in_msg.headers.get(DESTINATION_HEADER)
        if override is not None:
            name = stringify(override)
        if isinstance(exchange.in_msg.body, TERM_TYPES):
            exchange.in_msg.body = render_term(exchange.in_msg.body)
        if self._kind == "queue":
            self._service.send_queue(name, exchange)
        else:
            self._service.send_topic(name, exchange)


class BrokerComponent(Component):
    def __init__(self, service: BrokerService):
        self.service = service

    def create_consumer(self, uri: EndpointUri, route) -> Consumer:
        kind, name = _broker_destination(uri)
        service = self.service
        if kind == "queue":
            queue = service.queue(name)
            return _ChannelConsumer(lambda: queue)
        # A fresh channel subscribes to the topic while the route runs.
        return _ChannelConsumer(
            lambda: service.subscribe_topic(name),
            lambda channel: service.unsubscribe_topic(name, channel),
        )

    def create_producer(self, uri: EndpointUri, engine: RouteEngine, route_id: str) -> Producer:
        kind, name = _broker_destination(uri)
        return _BrokerProducer(self.service, kind, name)


# --- coordination service ------------------------------------------------------------

CreateMode = str  # "PERSISTENT" | "EPHEMERAL" | "EPHEMERAL_SEQUENTIAL"

_SEQ_WIDTH = 10


@dataclass
class CoordNode:
    path: str
    data: str
    mode: CreateMode
    owner_session: Optional[int] = None
    children: dict[str, None] = field(default_factory=dict)
    seq_counter: int = 0


@dataclass
class CoordSession:
    session_id: int
    alive: bool = True
    owned: list[str] = field(default_factory=list)


class CoordService:
    """A tree of named nodes with sessions, ephemerals and child watches.

    Ephemeral-sequential children get a 10-digit zero-padded counter suffix
    assigned per parent, so lexicographic order equals creation order; the
    counter never reuses a number after deletion.
    """

    def __init__(self):
        self._nodes: dict[str, CoordNode] = {"/": CoordNode("/", "", "PERSISTENT")}
        self._sessions: dict[int, CoordSession] = {}
        self._watches: dict[str, list[Channel]] = {}
        self._session_seq = itertools.count(1)
        self._lock = threading.RLock()

    def create_session(self) -> CoordSession:
        with self._lock:
            session = CoordSession(next(self._session_seq))
            self._sessions[session.session_id] = session
            return session

    def expire_session(self, session: Union[CoordSession, int]) -> None:
        sid = session.session_id if isinstance(session, CoordSession) else session
        with self._lock:
            state = self._sessions.get(sid)
            if state is None or not state.alive:
                return
            state.alive = False
            owned = list(state.owned)
        for path in owned:
            try:
                self.delete(path)
            except NoNodeError:
                pass

    def _require_session(self, session: Optional[CoordSession]) -> Optional[CoordSession]:
        if session is not None and not session.alive:
            raise SessionExpiredError(f"session {session.session_id} has expired")
        return session

    @staticmethod
    def _parent_of(path: str) -> str:
        parent = path.rsplit("/", 1)[0]
        return parent or "/"

    def create(
        self,
        session: Optional[CoordSession],
        path: str,
        data: str = "",
        mode: CreateMode = "PERSISTENT",
        auto_parents: bool = False,
    ) -> str:
        if not path.startswith("/") or path.endswith("/"):
            raise ValueError(f"bad node path {path!r}")
        self._require_session(session)
        with self._lock:
            parent_path = self._parent_of(path)
            if parent_path not in self._nodes:
                if not auto_parents:
                    raise NoParentError(parent_path)
                self.create(None, parent_path, "", "PERSISTENT", auto_parents=True)
            parent = self._nodes[parent_path]
            if parent.mode != "PERSISTENT":
                raise ValueError(f"ephemeral node {parent_path} cannot have children")
            name = path.rsplit("/", 1)[-1]
            if mode == "EPHEMERAL_SEQUENTIAL":
                name = f"{name}{parent.seq_counter:0{_SEQ_WIDTH}d}"
                parent.seq_counter += 1
                path = f"{parent_path.rstrip('/')}/{name}"
            elif path in self._nodes:
                raise NodeExistsError(path)
            owner = None
            if mode in ("EPHEMERAL", "EPHEMERAL_SEQUENTIAL"):
                if session is None:
                    raise ValueError("ephemeral nodes need an owning session")
                owner = session.session_id
                session.owned.append(path)
            self._nodes[path] = CoordNode(path, data, mode, owner)
            parent.children[name] = None
            self._notify_children(parent_path)
            return path

    def delete(self, path: str) -> None:
        with self._lock:
            node = self._nodes.get(path)
            if node is None:
                raise NoNodeError(path)
            if node.children:
                raise ValueError(f"node {path} still has children")
            del self._nodes[path]
            parent_path = self._parent_of(path)
            parent = self._nodes.get(parent_path)
            if parent is not None:
                parent.children.pop(path.rsplit("/", 1)[-1], None)
                self._notify_children(parent_path)

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._nodes

    def get_data(self, path: str) -> str:
        with self._lock:
            node = self._nodes.get(path)
            if node is None:
                raise NoNodeError(path)
            return node.data

    def get_children(self, path: str) -> list[str]:
        with self._lock:
            node = self._nodes.get(path)
            if node is None:
                raise NoNodeError(path)
            return sorted(node.children)

    def watch_children(self, path: str, repeat: bool = True) -> Channel:
        """Stream the current child list immediately and, with ``repeat``, on
        every change."""
        with self._lock:
            if path not in self._nodes:
                raise NoNodeError(path)
            stream = Channel()
            if repeat:
                self._watches.setdefault(path, []).append(stream)
            stream.put(self.get_children(path))
            return stream

    def unwatch(self, path: str, stream: Channel) -> None:
        with self._lock:
            streams = self._watches.get(path, [])
            if stream in streams:
                streams.remove(stream)

    def _notify_children(self, path: str) -> None:
        children = self.get_children(path) if path in self._nodes else []
        for stream in self._watches.get(path, []):
            stream.put(children)


def _coord_node_path(uri: EndpointUri) -> str:
    # coord://server/a/b has path "//server/a/b"; the server segment names the
    # (single, in-process) service and is otherwise ignored.
    path = uri.path
    if path.startswith("//"):
        rest = path[2:]
        _, _, node = rest.partition("/")
        return "/" + node
    return path if path.startswith("/") else "/" + path


class _CoordCreateProducer(Producer):
    def __init__(self, service: CoordService, session: Optional[CoordSession], path: str, mode: CreateMode):
        self._service = service
        self._session = session
        self._path = path
        self._mode = mode

    def process(self, exchange: Exchange) -> None:
        created = self._service.create(
            self._session,
            self._path,
            stringify(exchange.in_msg.body),
            self._mode,
            auto_parents=True,
        )
        exchange.in_msg.headers["coord.node"] = created


class CoordComponent(Component):
    def __init__(self, service: CoordService, session: Optional[CoordSession] = None):
        self.service = service
        self.session = session

    def create_consumer(self, uri: EndpointUri, route) -> Consumer:
        if not uri.get_bool("listChildren"):
            raise ValueError(f"coord consumer needs listChildren=true: {uri}")
        service, path, repeat = self.service, _coord_node_path(uri), uri.get_bool("repeat", False)
        return _ChannelConsumer(
            lambda: service.watch_children(path, repeat),
            lambda stream: service.unwatch(path, stream),
            lambda children: Delivery(new_exchange(ExchangePattern.IN_ONLY, tuple(children))),
        )

    def create_producer(self, uri: EndpointUri, engine: RouteEngine, route_id: str) -> Producer:
        if not uri.get_bool("create"):
            raise ValueError(f"coord producer needs create=true: {uri}")
        mode = uri.get("createMode", "PERSISTENT")
        if mode not in ("PERSISTENT", "EPHEMERAL", "EPHEMERAL_SEQUENTIAL"):
            raise ValueError(f"unknown createMode {mode!r}")
        return _CoordCreateProducer(self.service, self.session, _coord_node_path(uri), mode)


# --- mail store -----------------------------------------------------------------------


# The unread mails one ``MailStore.poll``, and so one poll of a ``mail:``
# consumer, takes at most; the rest stay unread in the store, so a burst flows
# through the routes in rounds of this size.
MAIL_POLL_LIMIT = 64


@dataclass(frozen=True, slots=True)
class MailMessage:
    """One stored mail.  A delivery stores it once and every recipient's inbox
    holds that same object, so it cannot change; read state is per account."""

    id: str
    from_addr: str
    subject: str
    to: tuple[str, ...]
    body: str


class MailStore:
    def __init__(self):
        self._accounts: dict[str, dict[str, list[MailMessage]]] = {}
        self._read: dict[str, int] = {}  # polled inbox mails; unread mail is the tail
        self._seq = itertools.count(1)
        self._listeners: dict[str, set[Callable[[], None]]] = {}
        self._lock = threading.Lock()

    def add_account(self, name: str) -> None:
        with self._lock:
            self._accounts.setdefault(name, {"inbox": []})

    def accounts(self) -> list[str]:
        with self._lock:
            return sorted(self._accounts)

    def deliver(self, to: Sequence[str], from_addr: str, subject: str, body: str) -> list[str]:
        """Stores the mail once, in each distinct recipient's inbox once, making
        missing accounts; returns its id once per distinct recipient.  Each
        recipient's listeners are called after the mail lands."""
        recipients = dict.fromkeys(to)
        with self._lock:
            mail = MailMessage(str(next(self._seq)), from_addr, subject, tuple(recipients), body)
            for recipient in recipients:
                folders = self._accounts.get(recipient)
                if folders is None:
                    folders = self._accounts[recipient] = {"inbox": []}
                folders["inbox"].append(mail)
            for account in self._listeners.keys() & recipients.keys():
                for ready in self._listeners[account]:
                    ready()
        return [mail.id] * len(recipients)

    def listen(self, account: str, ready: Callable[[], None]) -> None:
        with self._lock:
            self._listeners.setdefault(account, set()).add(ready)

    def poll(
        self, account: str, delete: bool = False, copy_to: Optional[str] = None, limit: int = MAIL_POLL_LIMIT
    ) -> list[MailMessage]:
        """The oldest unread mails, at most ``limit``; only they are deleted,
        copied or marked read, and the rest stay unread."""
        with self._lock:
            folders = self._accounts.get(account)
            if folders is None:
                raise UnknownAccountError(account)
            inbox = folders["inbox"]
            read = self._read.get(account, 0)
            end = read + limit
            unread = inbox[read:end]
            if delete:
                del inbox[read:end]
            else:
                self._read[account] = read + len(unread)
            if copy_to is not None:
                folders.setdefault(copy_to, []).extend(unread)
            return unread

    def folder(self, account: str, name: str) -> list[MailMessage]:
        with self._lock:
            folders = self._accounts.get(account)
            if folders is None:
                raise UnknownAccountError(account)
            return list(folders.get(name, []))


class _MailConsumer(Consumer):
    def __init__(self, store: MailStore, account: str, delete: bool, copy_to: Optional[str]):
        self._store = store
        self._account = account
        self._delete = delete
        self._copy_to = copy_to
        self._pending: deque[MailMessage] = deque()

    def start(self, ready: Callable[[], None]) -> None:
        self._store.listen(self._account, ready)

    def poll(self) -> Optional[Delivery]:
        if not self._pending:
            try:
                self._pending = deque(self._store.poll(self._account, self._delete, self._copy_to))
            except UnknownAccountError:
                return None  # no delivery has created the account yet
            if not self._pending:
                return None
        mail = self._pending.popleft()
        exchange = new_exchange(
            ExchangePattern.IN_ONLY,
            mail.body,
            {"from": mail.from_addr, "subject": mail.subject, "id": mail.id},
        )
        return Delivery(exchange)

    def backlog(self) -> int:
        return len(self._pending)


def _recipients_from_header(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [v if isinstance(v, str) else v.text if isinstance(v, Str) else stringify(v) for v in value]
    text = stringify(value).strip()
    if not text:
        return []
    if text.startswith("["):
        # List text that does not parse is an error, never a comma split.
        term = parse_term(text)
        if isinstance(term, ListTerm):
            return [el.text if isinstance(el, Str) else render_term(el) for el in term.elements]
    return [p.strip() for p in text.split(",") if p.strip()]


class _MailtoProducer(Producer):
    def __init__(self, store: MailStore, engine: RouteEngine, route_id: str):
        self._store = store
        self._engine = engine
        self._route_id = route_id

    def process(self, exchange: Exchange) -> None:
        headers = exchange.in_msg.headers
        recipients = _recipients_from_header(headers.get("to"))
        if not recipients:
            raise MissingRecipientsError("mail producer needs a non-empty 'to' header")
        from_addr = stringify(headers.get("from", ""))
        subject = stringify(headers.get("subject", ""))
        self._store.deliver(recipients, from_addr, subject, stringify(exchange.in_msg.body))
        self._engine.log.emit(
            self._route_id,
            "forward",
            exchange.id,
            detail=f"to=[{','.join(recipients)}] subject={subject}",
        )


class MailComponent(Component):
    """Consumer side: ``mail:ACCOUNT?delete=&copyTo=`` polls unread mail.

    Credential-style parameters (username, password, ...) are accepted and
    ignored.
    """

    def __init__(self, store: MailStore):
        self.store = store

    def create_consumer(self, uri: EndpointUri, route) -> Consumer:
        account = uri.path.lstrip("/")
        return _MailConsumer(
            self.store, account, uri.get_bool("delete"), uri.get("copyTo")
        )


class MailtoComponent(Component):
    def __init__(self, store: MailStore):
        self.store = store

    def create_producer(self, uri: EndpointUri, engine: RouteEngine, route_id: str) -> Producer:
        return _MailtoProducer(self.store, engine, route_id)


# --- table store ----------------------------------------------------------------------


@dataclass
class Table:
    name: str
    columns: tuple[str, ...]
    rows: list[dict[str, str]] = field(default_factory=list)


_SELECT_RE = re.compile(r"^\s*select\s+(?P<cols>\w+(?:\s*,\s*\w+)*)\s+from\s+(?P<table>\w+)\s*$", re.IGNORECASE)


@dataclass(frozen=True)
class _NotifyConfig:
    topic: str
    label: str
    key_column: str


class TableStore:
    def __init__(self, broker: Optional[BrokerService] = None):
        self._tables: dict[str, Table] = {}
        self._broker = broker
        self._notify: dict[str, _NotifyConfig] = {}
        self._lock = threading.Lock()

    def add_table(self, name: str, columns: Sequence[str], rows: Sequence[dict[str, str]] = ()) -> None:
        with self._lock:
            self._tables[name] = Table(name, tuple(columns), [dict(r) for r in rows])

    def configure_notifications(self, table: str, topic: str, label: str, key_column: str) -> None:
        """Publish ``<label>_added("key")`` / ``<label>_removed("key")`` on mutation."""
        self._notify[table] = _NotifyConfig(topic, label, key_column)

    def query(self, sql_text: str) -> RowSet:
        m = _SELECT_RE.match(sql_text)
        if m is None:
            raise UnsupportedSqlError(f"only SELECT col[, col] FROM table is supported: {sql_text!r}")
        columns = [c.strip() for c in m.group("cols").split(",")]
        with self._lock:
            table = self._tables.get(m.group("table"))
            if table is None:
                raise UnknownTableError(m.group("table"))
            for col in columns:
                if col not in table.columns:
                    raise UnknownColumnError(col)
            rows = tuple({c: row[c] for c in columns} for row in table.rows)
        return RowSet(tuple(columns), rows)

    def rows(self, table_name: str) -> list[dict[str, str]]:
        with self._lock:
            table = self._tables.get(table_name)
            if table is None:
                raise UnknownTableError(table_name)
            return [dict(r) for r in table.rows]

    def mutate(self, table_name: str, op: str, row: dict[str, str]) -> None:
        """Insert or delete a row, then publish the change notification."""
        with self._lock:
            table = self._tables.get(table_name)
            if table is None:
                raise UnknownTableError(table_name)
            if op == "insert":
                table.rows.append(dict(row))
            elif op == "delete":
                table.rows = [r for r in table.rows if not all(r.get(k) == v for k, v in row.items())]
            else:
                raise ValueError(f"unknown table mutation {op!r}")
            notify = self._notify.get(table_name)
        if notify is not None and self._broker is not None:
            suffix = "added" if op == "insert" else "removed"
            descriptor = Compound(
                f"{notify.label}_{suffix}", (Str(row.get(notify.key_column, "")),)
            )
            self._broker.send_topic(
                notify.topic, new_exchange(ExchangePattern.IN_ONLY, render_term(descriptor))
            )


class _TableProducer(Producer):
    def __init__(self, store: TableStore):
        self._store = store

    def process(self, exchange: Exchange) -> None:
        exchange.in_msg.body = self._store.query(stringify(exchange.in_msg.body))


class TableComponent(Component):
    def __init__(self, store: TableStore):
        self.store = store

    def create_producer(self, uri: EndpointUri, engine: RouteEngine, route_id: str) -> Producer:
        return _TableProducer(self.store)


# --- timer ----------------------------------------------------------------------------


class _TimerConsumer(_ChannelConsumer):
    """Fires through the engine's loop (``call_at``) into the channel of the
    current start; a call scheduled before a stop finds that channel gone."""

    def __init__(self, engine: RouteEngine, delay_ms: int, period_ms: Optional[int]):
        super().__init__(self._arm, self._disarm)
        self._engine = engine
        self._delay = delay_ms / 1000.0
        self._period = period_ms / 1000.0 if period_ms is not None else None
        # The current start's channel, set before its first call is scheduled.
        self._live: Optional[Channel] = None

    def _arm(self) -> Channel:
        self._live = channel = Channel()
        self._fire_at(time.monotonic() + self._delay, channel)
        return channel

    def _disarm(self, channel: Channel) -> None:
        self._live = None

    def _fire_at(self, due: float, channel: Channel) -> None:
        def fire() -> None:
            if channel is self._live:
                channel.put(new_exchange(ExchangePattern.IN_ONLY))
                if self._period is not None:
                    self._fire_at(due + self._period, channel)

        self._engine.call_at(due, fire)


class TimerComponent(Component):
    def create_consumer(self, uri: EndpointUri, route) -> Consumer:
        delay = int(uri.get("delay", "0"))
        if delay < 0:
            raise ValueError("timer delay must be >= 0")
        period_text = uri.get("period")
        period = int(period_text) if period_text else None
        if period is not None and period <= 0:
            raise ValueError("timer period must be > 0")
        return _TimerConsumer(route.engine, delay, period)
