import sys
import threading
import time
from collections import deque

import pytest

from routebus.agents import (
    ActionTimeoutError,
    AgentContainer,
    AgentId,
    AgentMessage,
    Async,
    BehaviorRule,
    CoordinationUnavailableError,
    NoMatchingEndpointError,
    OnMessage,
    OnPercept,
    OnStartup,
    PerformAction,
    Persistence,
    SendMessage,
    Sync,
    UnboundVariablesError,
    UpdateMode,
)
from routebus.agent_endpoints import AgentComponent
from routebus.expressions import constant
from routebus.routing import EventLog, RouteBuilder, RouteEngine
from routebus.services import CoordService
from routebus.terms import ActionTerm, Atom, parse_term, render_term

from conftest import take


@pytest.fixture
def container():
    return AgentContainer("c1")


def lit(text):
    return parse_term(text)


# --- identity ------------------------------------------------------------------


def test_full_name_concatenation():
    assert AgentId("c1", "alice").full_name == "c1__alice"


def test_local_name_validation():
    with pytest.raises(ValueError):
        AgentId("c1", "a__b")


def test_dynamic_container_ids_from_coordination():
    coord = CoordService()
    c1 = AgentContainer(coord=coord, dynamic_id=True)
    assert c1.container_id == "container0000000000"
    c2 = AgentContainer(coord=coord, dynamic_id=True)
    assert c2.container_id == "container0000000001"
    assert c2.container_id > c1.container_id


def test_dynamic_id_requires_coordination():
    with pytest.raises(CoordinationUnavailableError):
        AgentContainer(dynamic_id=True)


# --- percepts ------------------------------------------------------------------


def test_transient_percepts_consumed_once(container):
    agent = container.add_agent("alice")
    container.deliver_percept("all", lit("p(1)"))
    container.deliver_percept("all", lit("q(2)"))
    transients, novel, _ = agent.drain_for_cycle()
    assert [render_term(e.literal) for e in transients] == ["p(1)", "q(2)"]
    transients, novel, _ = agent.drain_for_cycle()
    assert transients == []


def test_persistent_replace_same_functor_arity(container):
    agent = container.add_agent("alice")
    container.deliver_percept(
        "all", lit("agents([a])"), Persistence.PERSISTENT, UpdateMode.REPLACE_SAME_FUNCTOR_ARITY
    )
    container.deliver_percept(
        "all", lit("agents([a,b])"), Persistence.PERSISTENT, UpdateMode.REPLACE_SAME_FUNCTOR_ARITY
    )
    snapshot = agent.persistent_snapshot()
    assert [render_term(t) for t in snapshot] == ["agents([a,b])"]


def test_replace_mode_also_clears_queued_transients(container):
    agent = container.add_agent("alice")
    container.deliver_percept("all", lit("state(1)"))
    container.deliver_percept(
        "all", lit("state(2)"), Persistence.TRANSIENT, UpdateMode.REPLACE_SAME_FUNCTOR_ARITY
    )
    transients, _, _ = agent.drain_for_cycle()
    assert [render_term(e.literal) for e in transients] == ["state(2)"]


def test_persistent_accumulate_deduplicates_identical(container):
    agent = container.add_agent("alice")
    for _ in range(3):
        container.deliver_percept("all", lit("fact(1)"), Persistence.PERSISTENT)
    assert len(agent.persistent_snapshot()) == 1


def test_broadcast_reaches_every_local_agent(container):
    agents = [container.add_agent(n) for n in ("a", "b", "c")]
    container.deliver_percept("all", lit("ping"))
    for agent in agents:
        transients, _, _ = agent.drain_for_cycle()
        assert len(transients) == 1


def test_named_unknown_receiver_rejected(container):
    container.add_agent("alice")
    with pytest.raises(KeyError):
        container.deliver_percept(["c1__nobody"], lit("p"))


# --- reasoning cycle --------------------------------------------------------------


def test_startup_rules_fire_exactly_once(container):
    calls = []
    rule = BehaviorRule(OnStartup(), lambda a, p: calls.append(1) or [], "startup")
    agent = container.add_agent("alice", [rule])
    container.run_cycle(agent)
    container.run_cycle(agent)
    assert calls == [1]


def test_on_percept_rule_fires_for_matching_functor_arity(container):
    seen = []
    rule = BehaviorRule(OnPercept("agents", 1), lambda a, p: seen.append(render_term(p)) or [], "r")
    agent = container.add_agent("alice", [rule])
    container.deliver_percept(
        "all", lit("agents([x])"), Persistence.PERSISTENT, UpdateMode.REPLACE_SAME_FUNCTOR_ARITY
    )
    container.deliver_percept("all", lit("agents(a,b)"))  # arity 2: no match
    container.run_cycle(agent)
    assert seen == ["agents([x])"]
    # persistent percept does not re-fire on the next cycle
    container.run_cycle(agent)
    assert seen == ["agents([x])"]


def test_empty_queues_produce_no_effects(container):
    agent = container.add_agent("alice")
    assert container.run_cycle(agent) == []


def test_on_message_rule_writes_memory(container):
    def remember(a, m):
        a.memory["last"] = render_term(m.content)
        return []

    rule = BehaviorRule(OnMessage("achieve", "check_relevance"), remember, "r")
    agent = container.add_agent("alice", [rule])
    msg = AgentMessage("achieve", "router", "c1__alice", lit("check_relevance(1)"), "m1")
    container.route_local_message(msg)
    container.run_cycle(agent)
    assert agent.memory["last"] == "check_relevance(1)"


def test_hook_error_skips_only_that_rule(container):
    seen = []
    bad = BehaviorRule(OnPercept("p", 0), lambda a, x: 1 / 0, "bad")
    good = BehaviorRule(OnPercept("p", 0), lambda a, x: seen.append(1) or [], "good")
    agent = container.add_agent("alice", [bad, good])
    container.deliver_percept("all", lit("p"))
    container.run_cycle(agent)
    assert seen == [1]


def test_cycle_fires_rules_in_event_arrival_order(container):
    fired = []

    def record(a, event):
        fired.append(render_term(event.content if isinstance(event, AgentMessage) else event))
        return []

    rules = [
        BehaviorRule(OnMessage("tell", "m"), record, "message"),
        BehaviorRule(OnPercept("q", 0), record, "q"),
        BehaviorRule(OnPercept("p", 0), record, "p"),
    ]
    agent = container.add_agent("alice", rules)
    container.route_local_message(AgentMessage("tell", "x", "c1__alice", lit("m"), "m1"))
    for text in ("p", "q", "p"):
        container.deliver_percept("all", lit(text))
    container.run_cycle(agent)
    assert fired == ["p", "q", "p", "m"]


def test_message_rule_sees_the_result_of_an_earlier_sync_action(action_setup):
    container, engine = action_setup
    rb = RouteBuilder()
    (
        rb.from_(
            "agent:action?exchangePattern=InOut&actionName=lookup&resultHeaderMap=result:1",
            route_id="lookup",
        ).set_header("result", constant("42"))
    )
    engine.add_routes(rb)

    def store(agent, result):
        agent.memory["found"] = render_term(result.args[0])

    seen = []
    rules = [
        BehaviorRule(
            OnPercept("p", 0),
            lambda a, p: [PerformAction(ActionTerm(parse_term("lookup(X)")), Sync(2000), store)],
            "act",
        ),
        BehaviorRule(
            OnMessage("tell", "m"), lambda a, m: seen.append(a.memory.get("found")) or [], "read"
        ),
    ]
    container.add_agent("alice", rules)
    container.deliver_percept("all", lit("p"))
    container.route_local_message(AgentMessage("tell", "x", "c1__alice", lit("m"), "m1"))
    container.start(engine)
    assert container.wait_until(lambda: seen, 2)
    assert seen == ["42"]


def test_msg_ids_unique_across_sends(container):
    sent = []
    rule = BehaviorRule(OnPercept("go", 0), lambda a, p: [SendMessage("tell", "router", lit("x"))], "r")
    agent = container.add_agent("alice", [rule])
    container.register_message_binding(_CaptureBinding(sent))
    for _ in range(5):
        container.deliver_percept("all", lit("go"))
        container.run_cycle(agent)
    ids = [m.msg_id for m in sent]
    assert len(set(ids)) == len(ids) == 5


class _CaptureBinding:
    def __init__(self, sink):
        self.sink = sink

    def offer_message(self, msg):
        self.sink.append(msg)
        return True


# --- local message routing ----------------------------------------------------------


def test_direct_delivery_local_receiver(container):
    alice = container.add_agent("alice")
    msg = AgentMessage("tell", "c1__bob", "c1__alice", lit("hi"), "m1")
    container.route_local_message(msg)
    assert list(alice.inbox) == [msg]


def test_broadcast_direct_delivery_reaches_all(container):
    agents = [container.add_agent(n) for n in ("a", "b")]
    msg = AgentMessage("tell", "c1__a", "all", lit("hi"), "m1")
    container.route_local_message(msg)
    assert all(len(a.inbox) == 1 for a in agents)


def test_unroutable_message_logged_as_deadletter():
    log = EventLog()
    container = AgentContainer("c1", log=log)
    container.route_local_message(AgentMessage("tell", "a", "c9__x", lit("hi"), "m1"))
    assert log.events(event="deadletter")


# --- actions -------------------------------------------------------------------------


@pytest.fixture
def action_setup():
    log = EventLog()
    container = AgentContainer("c1", log=log)
    engine = RouteEngine(log=log)
    engine.add_component("agent", AgentComponent(container))
    yield container, engine
    engine.stop()


def test_sync_action_binds_result(action_setup):
    container, engine = action_setup
    rb = RouteBuilder()
    (
        rb.from_(
            "agent:action?exchangePattern=InOut"
            "&actionName=get_email_accounts&resultHeaderMap=result:1",
            route_id="q",
        ).set_header("result", constant('["a@x","b@x"]'))
    )
    engine.add_routes(rb)
    agent = container.add_agent("alice")
    result = container.perform_action(
        agent, ActionTerm(parse_term("get_email_accounts(Accounts)")), Sync(2000)
    ).result()
    assert render_term(result.literal) == 'get_email_accounts(["a@x","b@x"])'


def test_async_action_returns_true_immediately(action_setup):
    container, engine = action_setup
    rb = RouteBuilder()
    rb.from_("agent:action?actionName=register", route_id="reg").to("buffered:out")
    engine.add_routes(rb)
    agent = container.add_agent("alice")
    assert container.perform_action(agent, ActionTerm(Atom("register")), Async()) is True
    out = take(engine._buffer("out"), 1)
    assert out.in_msg.headers["actor"] == "c1__alice"
    assert out.in_msg.body == Atom("register")


def test_async_action_with_free_variable_rejected(action_setup):
    container, _ = action_setup
    agent = container.add_agent("alice")
    with pytest.raises(UnboundVariablesError):
        container.perform_action(agent, ActionTerm(parse_term("q(X)")), Async())


def test_no_matching_endpoint(action_setup):
    container, _ = action_setup
    agent = container.add_agent("alice")
    with pytest.raises(NoMatchingEndpointError):
        container.perform_action(agent, ActionTerm(Atom("register")), Async())


def test_sync_action_timeout_leaves_agent_usable(action_setup):
    container, engine = action_setup
    rb = RouteBuilder()
    (
        rb.from_(
            "agent:action?exchangePattern=InOut&actionName=slow&resultHeaderMap=result:1",
            route_id="slow",
        ).set_header("result", constant("1"))
    )
    engine.add_routes(rb)
    engine.controller("slow").suspend()  # holds the request
    agent = container.add_agent("alice")
    t0 = time.monotonic()
    with pytest.raises(ActionTimeoutError):
        container.perform_action(agent, ActionTerm(parse_term("slow(X)")), Sync(100)).result()
    assert time.monotonic() - t0 < 0.5
    assert container.run_cycle(agent) == []  # still cycling


def test_sync_action_reply_after_its_deadline_never_binds(action_setup):
    container, engine = action_setup
    rb = RouteBuilder()
    (
        rb.from_(
            "agent:action?exchangePattern=InOut&actionName=slow&resultHeaderMap=result:1",
            route_id="slow",
        )
        .process(lambda x: time.sleep(0.3))  # the loop runs the deadline only after this
        .set_header("result", constant("1"))
    )
    engine.add_routes(rb)
    agent = container.add_agent("alice")
    bound = container.perform_action(agent, ActionTerm(parse_term("slow(X)")), Sync(100))
    with pytest.raises(ActionTimeoutError):
        bound.result(2)
    turns_done = threading.Event()
    engine.submit(turns_done.set)  # queued behind the due deadline call
    assert turns_done.wait(2)
    assert isinstance(bound.exception(), ActionTimeoutError)
    assert engine.log.events(event="error") == []


def test_waiting_action_suspends_only_its_own_cycle(action_setup):
    container, engine = action_setup
    rb = RouteBuilder()
    (
        rb.from_(
            "agent:action?exchangePattern=InOut&actionName=lookup&resultHeaderMap=result:1",
            route_id="lookup",
        ).set_header("result", constant("42"))
    )
    engine.add_routes(rb)
    engine.controller("lookup").suspend()  # holds the request

    def store(agent, result):
        agent.memory["found"] = render_term(result.args[0])

    def record(a, event):
        name = render_term(event.content if isinstance(event, AgentMessage) else event)
        seen.append((a.id.local_name, name, a.memory.get("found")))
        return []

    seen = []
    lookup = PerformAction(ActionTerm(parse_term("lookup(X)")), Sync(5000), store)
    container.add_agent(
        "a",
        [
            BehaviorRule(OnPercept("p", 0), lambda a, p: record(a, p) or [lookup], "act"),
            BehaviorRule(OnPercept("q", 0), record, "after"),
            BehaviorRule(OnMessage("tell", "m"), record, "read"),
        ],
    )
    container.add_agent("b", [BehaviorRule(OnMessage("tell", "m"), record, "read")])
    container.deliver_percept("c1__a", lit("p"))
    container.deliver_percept("c1__a", lit("q"))
    container.start(engine)
    try:
        assert container.wait_until(lambda: seen, 2)  # a's cycle now waits for its reply
        for receiver in ("c1__a", "c1__b"):
            container.route_local_message(AgentMessage("tell", "x", receiver, lit("m"), "m1"))
        assert container.wait_until(lambda: len(seen) == 2, 0.5)
        assert seen == [("a", "p", None), ("b", "m", None)]

        engine.controller("lookup").resume()
        assert container.wait_until(lambda: len(seen) == 4, 2)
        assert seen[2:] == [("a", "q", "42"), ("a", "m", "42")]
    finally:
        container.stop()


class _RecordingInbox(deque):
    """An agent inbox that notes the thread of every append."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def append(self, msg):
        self.threads.add(threading.get_ident())
        super().append(msg)


def test_messages_from_many_threads_are_all_handled():
    container = AgentContainer("c1")
    engine = RouteEngine(name="c1")
    handled = []

    def handle(agent, msg):
        time.sleep(0.0005)  # messages arrive while a cycle runs
        handled.append(msg.msg_id)
        return []

    agent = container.add_agent("a", [BehaviorRule(OnMessage("tell", "n"), handle, "r")])
    agent.inbox = _RecordingInbox()
    engine.start()
    loop = engine._loop.ident
    container.start(engine)

    def send(k):
        for i in range(300):
            container.route_local_message(AgentMessage("tell", "x", "c1__a", lit("n"), f"{k}-{i}"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        senders = [threading.Thread(target=send, args=(k,)) for k in range(3)]
        for t in senders:
            t.start()
        for t in senders:
            t.join(10)
        assert not any(t.is_alive() for t in senders)
        # A lost ready would leave the last messages in the inbox for good.
        assert container.wait_until(lambda: len(handled) == 900, 10)
    finally:
        sys.setswitchinterval(interval)
        container.stop()
        engine.stop()
    assert sorted(handled) == sorted(f"{k}-{i}" for k in range(3) for i in range(300))
    # Only the loop writes an inbox, whichever thread sent the message.
    assert agent.inbox.threads == {loop}


def test_percepts_from_many_threads_are_all_handled():
    container = AgentContainer("c1")
    engine = RouteEngine(name="c1")
    fired = []

    def handle(agent, percept):
        time.sleep(0.0005)  # percepts arrive while a cycle runs
        fired.append(render_term(percept))
        return []

    agent = container.add_agent("a", [BehaviorRule(OnPercept("n", 2), handle, "r")])
    engine.start()
    container.start(engine)

    def send(k):
        for i in range(200):
            container.deliver_percept("c1__a", lit(f"n({k},{i})"))
            container.deliver_percept(
                "c1__a",
                lit(f"level({k},{i})"),
                Persistence.PERSISTENT,
                UpdateMode.REPLACE_SAME_FUNCTOR_ARITY,
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        senders = [threading.Thread(target=send, args=(k,)) for k in range(3)]
        for t in senders:
            t.start()
        for t in senders:
            t.join(10)
        assert not any(t.is_alive() for t in senders)
        assert container.wait_until(lambda: len(fired) == 600, 10)
    finally:
        sys.setswitchinterval(interval)
        container.stop()
        engine.stop()
    assert sorted(fired) == sorted(f"n({k},{i})" for k in range(3) for i in range(200))
    stored = agent.persistent_snapshot()
    assert len(stored) == 1 and render_term(stored[0]).startswith("level(")


def test_threaded_container_executes_startup_and_effects(action_setup):
    container, engine = action_setup
    rb = RouteBuilder()
    rb.from_("agent:action?actionName=register", route_id="reg").to("buffered:out")
    engine.add_routes(rb)
    container.add_agent(
        "alice",
        [BehaviorRule(OnStartup(), lambda a, p: [PerformAction(ActionTerm(Atom("register")))], "s")],
    )
    container.start(engine)
    try:
        out = take(engine._buffer("out"), 2)
        assert out.in_msg.headers["actor"] == "c1__alice"
    finally:
        container.stop()
