"""Per-layer tracing, applied from outside the program.

The tracer replaces, for the length of one run, the entry points through
which routebus modules call each other: class methods (``RouteService.process``,
``AgentContainer.run_cycle``, ``MailStore.deliver``, ...) and the module-global
names a module imported from another (``routing.parse_term``,
``demo.behaviors.compute_allocation``, ...).  Calls a module makes to its own
functions stay unwrapped, so ``render_term`` recursing into a list is one span,
not hundreds.  No file of the program is touched, and ``uninstall`` puts every
original back.

Each wrapped call is a span: name, start, end, self time and the enclosing
span's name, plus the mail's token when an exchange or message argument
carries it.  Self time is the span's thread CPU time minus that of its child
spans, kept with a per-thread stack; CPU time rather than wall time, because
with the GIL a span's wall time also holds every other thread's work.  Spans
stay in memory until the run ends.
Waits come from timestamps the wrappers record at enqueue and drain, and from
the program's own ``EventLog``.
"""

from __future__ import annotations

import gzip
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Callable, Optional

from routebus import agent_endpoints, agents, expressions, routing, services
from routebus.demo import behaviors, runner
from routebus.agents import AgentContainer, AgentState, Sync
from routebus.messages import Exchange, Message
from routebus.routing import AggregateState, RouteService
from routebus.services import MailStore, TableStore

from workloads import token_of

# Modules whose imported codec names are wrapped.
_TERM_CALLERS = (routing, agents, agent_endpoints, services, expressions, behaviors, runner)

# The demo's one ``buffered:`` hop: queue name -> the route that drains it.
BUFFERED_CONSUMERS = {"forward-message": "forward"}

# (metric, unit) in report order; see README.md for which end-to-end metric
# each should move.
PER_LAYER = [
    ("terms.parse.calls_per_mail", "calls/mail"),
    ("terms.parse.self_us", "us/mail"),
    ("terms.render.calls_per_mail", "calls/mail"),
    ("terms.render.self_us", "us/mail"),
    ("messages.copy.calls_per_mail", "calls/mail"),
    ("messages.copy.self_us", "us/mail"),
    ("expressions.eval.calls_per_mail", "calls/mail"),
    ("expressions.eval.self_us", "us/mail"),
    ("routing.mail-poll.self_us", "us/mail"),
    ("routing.ask-agents.self_us", "us/mail"),
    ("routing.collect-replies.self_us", "us/mail"),
    ("routing.forward.self_us", "us/mail"),
    ("routing.account-query.self_us", "us/mail"),
    ("routing.aggregate.hold_ms", "ms"),
    ("routing.buffered.wait_ms", "ms"),
    ("routing.suspended_ms", "ms"),
    ("routing.aggregate.open_buckets_max", "count"),
    ("routing.aggregate.leftover_buckets", "count"),
    ("routing.flush.ticks_per_s", "1/s"),
    ("routing.flush.self_us", "us/mail"),
    ("routing.errors_per_mail", "1/mail"),
    ("routing.events_per_mail", "1/mail"),
    ("agents.idle_cycles_per_s", "1/s"),
    ("agents.cycle.busy_self_us", "us/mail"),
    ("agents.msgs_per_cycle", "count"),
    ("agents.inbox_wait_ms", "ms"),
    ("agents.sync_action_ms", "ms"),
    ("agents.deliver_percept.self_us", "us/mail"),
    ("agent_endpoints.consume.accept_ratio", "ratio"),
    ("agent_endpoints.consume_message.self_us", "us/mail"),
    ("agent_endpoints.produce_message.self_us", "us/mail"),
    ("agent_endpoints.produce_percept.self_us", "us/mail"),
    ("agent_endpoints.complete_sync_action.self_us", "us/mail"),
    ("services.mail.poll_wait_ms", "ms"),
    ("services.mail.poll.hit_ratio", "ratio"),
    ("services.mail.deliver.self_us", "us/mail"),
    ("services.table.rows.calls_per_mail", "calls/mail"),
    ("services.table.rows.self_us", "us/mail"),
    ("services.table.query.self_us", "us/mail"),
    ("services.table.mutate.self_us", "us/mail"),
    ("demo.compute_allocation.calls_per_mail", "calls/mail"),
    ("demo.compute_allocation.self_us", "us/mail"),
    ("demo.build_ms", "ms"),
    ("demo.readiness_ms", "ms"),
    ("bench.gen_lag_p95_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.threads_after_stop", "count"),
]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _route_label(args) -> str:
    route_id = args[0].route_id
    name = route_id.split(":", 1)[-1]
    if name.startswith("resume-timer-"):
        name = "resume-timer"
    return "routing." + name


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, self_s, parent, token)
        self.marks: dict[str, float] = {}
        self.generator: Optional[threading.Thread] = None
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._xid_token: dict[str, str] = {}
        # Timestamped observations, filtered to a window when reported.
        self.events: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._enqueued: dict[tuple[int, int], float] = {}
        self._injected: dict[str, float] = {}  # mail-store id -> perf time
        self._bucket_open: dict[tuple[int, str], float] = {}
        self._state_route: dict[int, str] = {}
        self.states: dict[int, AggregateState] = {}

    # -- marks --

    def mark(self, name: str) -> None:
        self.marks[name] = perf_counter()

    def forget_states(self) -> None:
        """Drop aggregate states of a scenario that was stopped during set-up."""
        self.states.clear()

    # -- wrapping --

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def token(self, args) -> Optional[str]:
        """The token of the mail an exchange or message argument belongs to."""
        for a in args:
            if isinstance(a, Exchange):
                xid, headers = a.id, a.in_msg.headers
            elif isinstance(a, Message):
                xid, headers = None, a.headers
            else:
                continue
            subject = headers.get("subject")
            if isinstance(subject, str):
                tok = token_of(subject)
                if tok is not None:
                    if xid is not None:
                        self._xid_token[xid] = tok
                    return tok
            key = headers.get("id")
            if isinstance(key, str):
                tok = self._xid_token.get(key.strip('"'))
                if tok is not None:
                    return tok
            if xid is not None and xid in self._xid_token:
                return self._xid_token[xid]
        return None

    def wrap(
        self,
        owner,
        attr: str,
        name,
        after: Optional[Callable] = None,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper.  ``name`` is a span
        name or a function of the call's arguments; ``after(args, result,
        start, end)`` records observations once the call returns."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not span:
                t0 = perf_counter()
                result = original(*args, **kwargs)
                after(args, result, t0, perf_counter())
                return result
            stack = tracer._stack()
            label = name(args) if callable(name) else name
            frame = [0.0, label]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0, c0 = perf_counter(), thread_time()
            try:
                result = original(*args, **kwargs)
            finally:
                c1, t1 = thread_time(), perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += c1 - c0
                spans.append((label, t0, t1, c1 - c0 - frame[0], parent, tracer.token(args)))
            if after is not None:
                after(args, result, t0, t1)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for mod in _TERM_CALLERS:
            if "parse_term" in vars(mod):
                self.wrap(mod, "parse_term", "terms.parse")
            if "render_term" in vars(mod):
                self.wrap(mod, "render_term", "terms.render")
        self.wrap(Message, "copy", "messages.copy")
        self.wrap(routing, "eval_expr", "expressions.eval")

        self.wrap(RouteService, "process", _route_label)
        self.wrap(RouteService, "process_inline", _route_label)
        self.wrap(RouteService, "_flush_expired", "routing.flush", self._after_route_flush)
        self.wrap(AggregateState, "offer", None, self._after_offer, span=False)
        self.wrap(AggregateState, "flush_expired", None, self._after_flush, span=False)

        self.wrap(AgentContainer, "run_cycle", "agents.cycle", self._after_cycle)
        self.wrap(AgentContainer, "perform_action", "agents.perform_action", self._after_action)
        self.wrap(AgentContainer, "deliver_percept", "agents.deliver_percept")
        self.wrap(AgentState, "enqueue_message", None, self._after_enqueue, span=False)
        self.wrap(AgentState, "drain_for_cycle", None, self._after_drain, span=False)

        accept = self._after_consume
        self.wrap(agent_endpoints, "consume_agent_message", "agent_endpoints.consume_message", accept)
        self.wrap(agent_endpoints, "consume_agent_action", "agent_endpoints.consume_action", accept)
        self.wrap(agent_endpoints, "produce_agent_message", "agent_endpoints.produce_message")
        self.wrap(agent_endpoints, "produce_percept", "agent_endpoints.produce_percept")
        self.wrap(agent_endpoints, "complete_sync_action", "agent_endpoints.complete_sync_action")

        self.wrap(MailStore, "deliver", self._deliver_label, self._after_deliver)
        self.wrap(MailStore, "poll", "services.mail.poll", self._after_poll)
        self.wrap(TableStore, "rows", "services.table.rows")
        self.wrap(TableStore, "query", "services.table.query")
        self.wrap(TableStore, "mutate", "services.table.mutate")

        self.wrap(behaviors, "compute_allocation", "demo.compute_allocation")
        self.wrap(runner.Scenario, "build", "demo.build")
        self.wrap(runner.Scenario, "_await_readiness", "demo.readiness")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- observations recorded by the wrappers --

    def _correlation(self, state: AggregateState, x: Exchange) -> str:
        return expressions.stringify(expressions.eval_expr(state.step.correlation, x))

    def _after_offer(self, args, merged, t0, t1) -> None:
        state, x = args
        sid = id(state)
        if sid not in self.states:
            self.states[sid] = state
            stack = self._stack()
            self._state_route[sid] = stack[-1][1] if stack else "?"
        key = (sid, self._correlation(state, x))
        if merged is None:
            self._bucket_open.setdefault(key, t0)
        else:
            self._closed(state, key, t1)
        self.events["open_buckets"].append((t1, sum(len(s.buckets) for s in self.states.values())))

    def _after_route_flush(self, args, result, t0, t1) -> None:
        # Each engine tick visits every started route once; counting the
        # visits to the mail poller counts the ticks.
        if args[0].route_id.endswith(":mail-poll"):
            self.events["flush_tick"].append((t0, 1.0))

    def _after_flush(self, args, merged, t0, t1) -> None:
        state = args[0]
        for x in merged:
            self._closed(state, (id(state), self._correlation(state, x)), t1)

    def _closed(self, state, key, t1) -> None:
        opened = self._bucket_open.pop(key, None)
        if opened is not None:
            route = self._state_route.get(id(state), "?")
            self.events["hold:" + route].append((t1, 1000.0 * (t1 - opened)))

    def _after_cycle(self, args, effects, t0, t1) -> None:
        # The drain hook left this cycle's (percepts, messages) on the thread.
        drained = getattr(self._local, "drained", (0, 0))
        self._local.drained = (0, 0)
        idle = drained == (0, 0) and not effects
        self.events["cycle_idle" if idle else "cycle_busy"].append((t0, float(drained[1])))

    def _after_action(self, args, result, t0, t1) -> None:
        if isinstance(args[3], Sync):
            self.events["sync_action"].append((t0, 1000.0 * (t1 - t0)))

    def _after_enqueue(self, args, result, t0, t1) -> None:
        agent, msg = args
        self._enqueued[(id(agent), id(msg))] = t0

    def _after_drain(self, args, result, t0, t1) -> None:
        agent = args[0]
        transients, novel, msgs = result
        self._local.drained = (len(transients) + len(novel), len(msgs))
        for msg in msgs:
            queued = self._enqueued.pop((id(agent), id(msg)), None)
            if queued is not None:
                self.events["inbox_wait"].append((t1, 1000.0 * (t1 - queued)))

    def _after_consume(self, args, exchange, t0, t1) -> None:
        self.events["consume"].append((t0, 0.0 if exchange is None else 1.0))

    def _deliver_label(self, args) -> str:
        if threading.current_thread() is self.generator:
            return "bench.inject"
        return "services.mail.deliver"

    def _after_deliver(self, args, ids, t0, t1) -> None:
        if threading.current_thread() is self.generator:
            for mail_id in ids:
                self._injected[mail_id] = t1

    def _after_poll(self, args, mails, t0, t1) -> None:
        self.events["poll_hit"].append((t0, 1.0 if mails else 0.0))
        for m in mails:
            injected = self._injected.pop(m.id, None)
            if injected is not None:
                self.events["poll_wait"].append((t1, 1000.0 * (t1 - injected)))

    # -- reporting --

    def _in(self, name: str, lo: float, hi: float) -> list[float]:
        return [v for t, v in self.events.get(name, ()) if lo <= t <= hi]

    def layer_metrics(
        self,
        scenario,
        mails: int,
        log_from: int,
        window: tuple[float, float],
        gen_lag_p95_ms: float,
        threads_after_stop: int,
    ) -> dict[str, float]:
        lo, hi = self.marks["load_start"], self.marks["load_end"]
        q_lo, q_hi = self.marks["quiet_start"], self.marks["quiet_end"]
        per_mail = max(1, mails)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, t0, _t1, s, _parent, _tok in self.spans:
            if lo <= t0 <= hi:
                calls[name] += 1
                self_s[name] += s
        cycles = [(t0, s) for name, t0, _t1, s, _p, _k in self.spans if name == "agents.cycle" and lo <= t0 <= hi]
        idle_starts = {t for t, _ in self.events.get("cycle_idle", ())}
        busy_self = sum(s for t0, s in cycles if t0 not in idle_starts)

        def us(name):
            return 1e6 * self_s[name] / per_mail

        def cpm(name):
            return calls[name] / per_mail

        m: dict[str, float] = {}
        m["terms.parse.calls_per_mail"] = cpm("terms.parse")
        m["terms.parse.self_us"] = us("terms.parse")
        m["terms.render.calls_per_mail"] = cpm("terms.render")
        m["terms.render.self_us"] = us("terms.render")
        m["messages.copy.calls_per_mail"] = cpm("messages.copy")
        m["messages.copy.self_us"] = us("messages.copy")
        m["expressions.eval.calls_per_mail"] = cpm("expressions.eval")
        m["expressions.eval.self_us"] = us("expressions.eval")
        for route in ("mail-poll", "ask-agents", "collect-replies", "forward", "account-query"):
            m[f"routing.{route}.self_us"] = us("routing." + route)

        m["routing.aggregate.hold_ms"] = _median(self._in("hold:routing.collect-replies", lo, hi))
        log_metrics = eventlog_metrics(scenario, log_from, window, per_mail)
        m["routing.buffered.wait_ms"] = log_metrics["buffered_wait_ms"]
        m["routing.suspended_ms"] = log_metrics["suspended_ms"]
        m["routing.aggregate.open_buckets_max"] = max(self._in("open_buckets", lo, hi), default=0.0)
        m["routing.aggregate.leftover_buckets"] = float(sum(len(s.buckets) for s in self.states.values()))
        quiet_s = max(1e-9, q_hi - q_lo)
        m["routing.flush.ticks_per_s"] = len(self._in("flush_tick", q_lo, q_hi)) / quiet_s
        m["routing.flush.self_us"] = us("routing.flush")
        m["routing.errors_per_mail"] = log_metrics["errors_per_mail"]
        m["routing.events_per_mail"] = log_metrics["events_per_mail"]

        m["agents.idle_cycles_per_s"] = len(self._in("cycle_idle", q_lo, q_hi)) / quiet_s
        m["agents.cycle.busy_self_us"] = 1e6 * busy_self / per_mail
        busy_msgs = [n for n in self._in("cycle_busy", lo, hi) if n > 0]
        m["agents.msgs_per_cycle"] = statistics.fmean(busy_msgs) if busy_msgs else 0.0
        m["agents.inbox_wait_ms"] = _median(self._in("inbox_wait", lo, hi))
        m["agents.sync_action_ms"] = _median([v for _, v in self.events.get("sync_action", ())])
        m["agents.deliver_percept.self_us"] = us("agents.deliver_percept")

        consumed = self._in("consume", lo, hi)
        m["agent_endpoints.consume.accept_ratio"] = statistics.fmean(consumed) if consumed else 0.0
        for op in ("consume_message", "produce_message", "produce_percept", "complete_sync_action"):
            m[f"agent_endpoints.{op}.self_us"] = us("agent_endpoints." + op)

        m["services.mail.poll_wait_ms"] = _median(self._in("poll_wait", lo, hi))
        hits = self._in("poll_hit", lo, hi)
        m["services.mail.poll.hit_ratio"] = statistics.fmean(hits) if hits else 0.0
        m["services.mail.deliver.self_us"] = us("services.mail.deliver")
        m["services.table.rows.calls_per_mail"] = cpm("services.table.rows")
        m["services.table.rows.self_us"] = us("services.table.rows")
        m["services.table.query.self_us"] = us("services.table.query")
        m["services.table.mutate.self_us"] = us("services.table.mutate")

        m["demo.compute_allocation.calls_per_mail"] = cpm("demo.compute_allocation")
        m["demo.compute_allocation.self_us"] = us("demo.compute_allocation")
        m["demo.build_ms"] = _median([1000.0 * (t1 - t0) for n, t0, t1, *_ in self.spans if n == "demo.build"])
        m["demo.readiness_ms"] = _median(
            [1000.0 * (t1 - t0) for n, t0, t1, *_ in self.spans if n == "demo.readiness"]
        )

        m["bench.gen_lag_p95_ms"] = gen_lag_p95_ms
        m["bench.threads_after_stop"] = float(threads_after_stop)
        return m

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, t0, t1, s, parent, tok in self.spans:
                fh.write(json.dumps([name, t0, t1, s, parent, tok]) + "\n")


def eventlog_metrics(scenario, log_from: int, window: tuple[float, float], mails: int) -> dict[str, float]:
    """Layer numbers read from the program's public event log over the load
    window: buffered-hop waits (an exchange copy keeps its id), time the
    mail poller spent suspended, distinct failing exchanges and record count."""
    lo, hi = window
    records = scenario.log.records()[log_from:]
    poll_route = scenario.mail_route_id()
    prefix = poll_route.rsplit(":", 1)[0] + ":"
    consumers = {f"buffered:{q}": prefix + r for q, r in BUFFERED_CONSUMERS.items()}
    pending: dict[tuple[str, str], list[float]] = defaultdict(list)
    waits: list[float] = []
    suspended_at: Optional[float] = None
    suspended = 0.0
    failing: set[str] = set()
    for r in records:
        if r.event == "send" and r.detail in consumers:
            pending[(consumers[r.detail], r.exchange_id)].append(r.ts)
        elif r.event == "receive" and (r.route_id, r.exchange_id) in pending:
            sends = pending[(r.route_id, r.exchange_id)]
            waits.append(1000.0 * (r.ts - sends.pop(0)))
            if not sends:
                del pending[(r.route_id, r.exchange_id)]
        elif r.event == "lifecycle" and r.route_id == poll_route:
            if r.detail == "suspended":
                suspended_at = r.ts
            elif r.detail == "resumed" and suspended_at is not None:
                suspended += r.ts - max(suspended_at, lo)
                suspended_at = None
        elif r.event == "error" and r.exchange_id != "-" and lo <= r.ts <= hi:
            failing.add(r.exchange_id)
    if suspended_at is not None:
        suspended += max(0.0, hi - suspended_at)
    in_window = sum(1 for r in records if lo <= r.ts <= hi)
    return {
        "buffered_wait_ms": _median(waits),
        "suspended_ms": 1000.0 * suspended,
        "errors_per_mail": len(failing) / mails,
        "events_per_mail": in_window / mails,
    }
