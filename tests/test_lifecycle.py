"""The engine loop: every consumer kind readies its route on a delivery and
honours suspend, resume and stop, the loop runs due calls in deadline order,
a failing poll leaves its route off the run queue instead of retrying, a
route's turn takes the backlog present at its start, and an engine stopped
and started again runs its routes and deadlines."""

import sys
import threading
import time

import pytest

from routebus.agent_endpoints import AgentComponent
from routebus.agents import AgentContainer, AgentMessage, BehaviorRule, OnMessage
from routebus.expressions import header
from routebus.messages import new_exchange
from routebus.routing import (
    Aggregate,
    AggregateState,
    Component,
    Consumer,
    ListAppend,
    RouteBuilder,
    RouteEngine,
    RouteState,
)
from routebus.services import (
    BrokerComponent,
    BrokerService,
    CoordComponent,
    CoordService,
    MailComponent,
    MailStore,
    TimerComponent,
)
from routebus.terms import Atom

from conftest import take, wait_for


@pytest.fixture
def engine():
    eng = RouteEngine()
    yield eng
    eng.stop()


# --- every consumer kind honours suspend, resume and stop ---------------------------
#
# Each source factory registers what the kind needs and returns
# (uri, feed, initial): ``feed()`` makes one delivery available, and
# ``initial`` is how many receives the route makes on its own after start.


def buffered_source(engine):
    return "buffered:in", lambda: engine._buffer("in").put(new_exchange(body="x")), 0


def broker_queue_source(engine):
    broker = BrokerService()
    engine.add_component("broker", BrokerComponent(broker))
    return "broker:queue:q", lambda: broker.send_queue("q", new_exchange(body="x")), 0


def broker_topic_source(engine):
    broker = BrokerService()
    engine.add_component("broker", BrokerComponent(broker))
    return "broker:topic:t", lambda: broker.send_topic("t", new_exchange(body="x")), 0


def coord_source(engine):
    coord = CoordService()
    coord.create(None, "/g")
    session = coord.create_session()
    engine.add_component("coord", CoordComponent(coord, session))
    feed = lambda: coord.create(session, "/g/n", "", "EPHEMERAL_SEQUENTIAL")
    return "coord://srv/g?listChildren=true&repeat=true", feed, 1


def mail_source(engine):
    store = MailStore()
    engine.add_component("mail", MailComponent(store))
    # The account does not exist until the first delivery creates it.
    return "mail:box?delete=true", lambda: store.deliver(["box"], "a@x", "s", "b"), 0


def timer_source(engine):
    # The one tick falls due while the route is suspended.
    engine.add_component("timer", TimerComponent())
    return "timer:t?delay=50", lambda: None, 0


def agent_message_source(engine):
    container = AgentContainer("c1")
    engine.add_component("agent", AgentComponent(container))
    msg = AgentMessage("tell", "c1__a", "elsewhere", Atom("hi"), "m1")
    return "agent:message", lambda: container.route_local_message(msg), 0


SOURCES = {
    "buffered": buffered_source,
    "broker-queue": broker_queue_source,
    "broker-topic": broker_topic_source,
    "coord": coord_source,
    "mail": mail_source,
    "timer": timer_source,
    "agent-message": agent_message_source,
}


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_consumer_honours_suspend_resume_stop(engine, kind):
    threads_before = set(threading.enumerate())
    uri, feed, initial = SOURCES[kind](engine)
    rb = RouteBuilder()
    rb.from_(uri, route_id="r")
    (ctl,) = engine.add_routes(rb)

    def receives():
        return len(engine.log.events(event="receive", route_id="r"))

    assert wait_for(lambda: receives() >= initial, timeout=2.0)
    ctl.suspend()
    before = receives()
    feed()
    time.sleep(0.2)
    assert receives() == before

    ctl.resume()
    assert wait_for(lambda: receives() > before, timeout=2.0)

    t0 = time.monotonic()
    ctl.stop()
    assert time.monotonic() - t0 < 0.5
    engine.stop()
    assert [t.name for t in threading.enumerate() if t not in threads_before] == []


def test_stopped_agent_consumer_gives_up_its_binding_and_takes_one_again(engine):
    # Stopped, the route no longer accepts messages to ``router``, so the
    # container deadletters one; started again, it holds one binding.
    container = AgentContainer("c1", log=engine.log)
    engine.add_component("agent", AgentComponent(container))
    rb = RouteBuilder()
    rb.from_("agent:message?receiver=router", route_id="r")
    (ctl,) = engine.add_routes(rb)

    def send(msg_id):
        container.route_local_message(AgentMessage("tell", "c1__a", "router", Atom("hi"), msg_id))

    def receives():
        return len(engine.log.events(event="receive", route_id="r"))

    ctl.stop()
    send("m1")
    assert len(engine.log.events(event="deadletter")) == 1
    ctl.start()
    send("m2")
    assert wait_for(lambda: receives() == 1, timeout=2.0)
    engine.call(lambda: None, wait=True)  # a turn after the route's
    assert receives() == 1
    assert len(container._message_bindings) == 1


# --- a failing poll leaves its route off the run queue ------------------------------


class _FailingConsumer(Consumer):
    def __init__(self):
        self.polls = 0

    def poll(self):
        self.polls += 1
        raise RuntimeError("source unavailable")


class _FailingComponent(Component):
    def __init__(self):
        self.consumer = _FailingConsumer()

    def create_consumer(self, uri, route):
        return self.consumer


def test_failing_poll_logs_once_and_parks_until_state_changes(engine):
    threads_before = set(threading.enumerate())
    component = _FailingComponent()
    engine.add_component("failing", component)
    rb = RouteBuilder()
    rb.from_("failing:src", route_id="f")
    (ctl,) = engine.add_routes(rb)

    def errors():
        return len(engine.log.events(event="error", route_id="f"))

    assert wait_for(lambda: errors() == 1, timeout=2.0)
    time.sleep(0.2)
    assert errors() == 1
    assert component.consumer.polls == 1

    # A lifecycle change is what lets the route poll again.
    ctl.suspend()
    ctl.resume()
    assert wait_for(lambda: errors() == 2, timeout=2.0)

    t0 = time.monotonic()
    ctl.stop()
    assert time.monotonic() - t0 < 0.5
    engine.stop()
    assert [t.name for t in threading.enumerate() if t not in threads_before] == []


def test_stop_waits_for_the_exchange_in_flight(engine):
    entered, release = threading.Event(), threading.Event()

    def block(x):
        entered.set()
        release.wait(5)
        engine.log.emit("r", "step-done", x.id)

    rb = RouteBuilder()
    rb.from_("buffered:in", route_id="r").process(block)
    (ctl,) = engine.add_routes(rb)
    engine._buffer("in").put(new_exchange(body="x"))
    assert entered.wait(2)
    stopper = threading.Thread(target=ctl.stop)
    stopper.start()
    stopper.join(0.2)
    assert stopper.is_alive()  # stop() waits while the step runs
    release.set()
    stopper.join(2)
    assert not stopper.is_alive()
    events = [(r.event, r.detail) for r in engine.log.records() if r.route_id == "r"]
    assert events.index(("step-done", "")) < events.index(("lifecycle", "stopped"))


def test_lifecycle_calls_from_a_step_and_from_another_thread(engine):
    entered, release = threading.Event(), threading.Event()

    def block(x):
        entered.set()
        release.wait(5)
        engine.log.emit("blocker", "step-done", x.id)

    rb = RouteBuilder()
    rb.from_("buffered:own", route_id="own").process(
        lambda x: engine.controller("own").suspend()
    ).to("buffered:own-out")
    rb.from_("buffered:stop", route_id="stopper").process(
        lambda x: engine.controller("other").stop()
    ).to("buffered:stop-out")
    rb.from_("buffered:other", route_id="other")
    rb.from_("buffered:block", route_id="blocker").process(block)
    engine.add_routes(rb)

    # A step that suspends its own route goes on to its end.
    engine._buffer("own").put(new_exchange(body="a"))
    assert take(engine._buffer("own-out"), 2) is not None
    assert engine.controller("own").state is RouteState.SUSPENDED

    # A step that stops another route goes on to its end.
    engine._buffer("stop").put(new_exchange(body="b"))
    assert take(engine._buffer("stop-out"), 2) is not None
    assert engine.controller("other").state is RouteState.STOPPED

    # A suspend from another thread waits for the step in flight.
    engine._buffer("block").put(new_exchange(body="c"))
    assert entered.wait(2)
    suspender = threading.Thread(target=engine.controller("blocker").suspend)
    suspender.start()
    suspender.join(0.2)
    assert suspender.is_alive()
    release.set()
    suspender.join(2)
    assert not suspender.is_alive()
    assert engine.controller("blocker").state is RouteState.SUSPENDED
    events = [(r.event, r.detail) for r in engine.log.records() if r.route_id == "blocker"]
    assert events.index(("step-done", "")) < events.index(("lifecycle", "suspended"))


def test_engine_stopped_and_started_again_runs_routes_and_deadlines(engine):
    engine.add_component("timer", TimerComponent())
    rb = RouteBuilder()
    rb.from_("buffered:in", route_id="relay").to("buffered:got")
    (
        rb.from_("buffered:timed", route_id="agg")
        .aggregate(header("k"), ListAppend())
        .completion_timeout(100)
        .to("buffered:flushed")
    )
    rb.from_("timer:t?delay=50", route_id="tick").to("buffered:ticked")
    engine.add_routes(rb)
    engine.stop()
    engine._buffer("ticked").items.clear()  # a tick of the first start
    engine.start()

    engine._buffer("in").put(new_exchange(body="x"))
    assert take(engine._buffer("got"), 2).in_msg.body == "x"
    t0 = time.monotonic()
    engine._buffer("timed").put(new_exchange(body="y", headers={"k": "1"}))
    assert take(engine._buffer("flushed"), 2).in_msg.body == ("y",)
    assert time.monotonic() - t0 >= 0.09
    assert take(engine._buffer("ticked"), 2) is not None


# --- a route's turn takes the backlog present at its start --------------------------


def test_a_due_deadline_is_not_held_behind_a_backlog(engine):
    order = []

    def step(x):
        if x.in_msg.body == 0:
            engine.call_at(time.monotonic() + 0.005, lambda: order.append("deadline"))
        time.sleep(0.001)
        order.append(x.in_msg.body)

    rb = RouteBuilder()
    rb.from_("buffered:in", route_id="r").process(step)
    engine.add_routes(rb, start=False)
    for i in range(50):
        engine._buffer("in").put(new_exchange(body=i))
    engine.start()
    assert wait_for(lambda: len(order) == 51, timeout=5.0)
    assert order.index("deadline") < order.index(49)
    assert [b for b in order if b != "deadline"] == list(range(50))


def test_what_a_turn_feeds_its_own_route_waits_behind_what_it_readied(engine):
    container = AgentContainer("c1")
    engine.add_component("agent", AgentComponent(container))
    order = []
    container.add_agent(
        "a", [BehaviorRule(OnMessage("tell", "n"), lambda a, m: order.append(("agent", m.msg_id)) or [])]
    )

    def step(x):
        order.append(("self", x.in_msg.body))
        if x.in_msg.body == "a":
            engine._buffer("self").put(new_exchange(body="fed"))
            engine._buffer("other").put(new_exchange(body="o"))
            container.route_local_message(AgentMessage("tell", "x", "c1__a", Atom("n"), "m1"))

    rb = RouteBuilder()
    rb.from_("buffered:self", route_id="self").process(step)
    rb.from_("buffered:other", route_id="other").process(
        lambda x: order.append(("other", x.in_msg.body))
    )
    engine.add_routes(rb, start=False)
    for body in "abc":
        engine._buffer("self").put(new_exchange(body=body))
    container.start(engine)
    engine.start()
    assert wait_for(lambda: len(order) == 6, timeout=2.0)
    assert order == [
        ("self", "a"),
        ("self", "b"),
        ("self", "c"),
        ("other", "o"),
        ("agent", "m1"),
        ("self", "fed"),
    ]


@pytest.mark.parametrize("verb", ["suspend", "stop"])
def test_a_step_that_takes_its_route_out_of_started_ends_the_turn(engine, verb):
    seen = []

    def step(x):
        seen.append(x.in_msg.body)
        if x.in_msg.body == 2:
            getattr(engine.controller("r"), verb)()

    rb = RouteBuilder()
    rb.from_("buffered:in", route_id="r").process(step)
    (ctl,) = engine.add_routes(rb, start=False)
    channel = engine._buffer("in")
    for i in range(5):
        channel.put(new_exchange(body=i))
    engine.start()
    assert wait_for(lambda: len(seen) == 3, timeout=2.0)
    time.sleep(0.1)
    assert seen == [0, 1, 2]
    assert [x.in_msg.body for x in channel.items] == [3, 4]

    ctl.resume() if verb == "suspend" else ctl.start()
    assert wait_for(lambda: len(seen) == 5, timeout=2.0)
    assert seen == list(range(5))


def test_a_timer_route_that_stops_itself_mid_backlog_is_not_polled_again(engine):
    engine.add_component("timer", TimerComponent())
    rb = RouteBuilder()
    rb.from_("timer:t?delay=0&period=5", route_id="t").process(
        lambda x: engine.controller("t").stop()
    )
    (ctl,) = engine.add_routes(rb, start=False)
    # The loop sleeps first, so overdue ticks pile up before the route's turn.
    engine.submit(lambda: time.sleep(0.05))
    engine.start()
    assert wait_for(lambda: ctl.state is RouteState.STOPPED, timeout=2.0)
    time.sleep(0.05)
    assert len(engine.log.events(event="receive", route_id="t")) == 1
    assert engine.log.events(event="error", route_id="t") == []


# --- deadline scheduler ------------------------------------------------------------


def test_call_at_runs_due_calls_in_deadline_order(engine):
    engine.start()
    order = []
    done = threading.Event()
    now = time.monotonic()
    engine.call_at(now + 0.10, lambda: (order.append("late"), done.set()))
    engine.call_at(now + 0.05, lambda: order.append("early"))
    assert done.wait(2)
    assert order == ["early", "late"]
    assert time.monotonic() - now >= 0.10


def test_scheduled_call_that_raises_does_not_stop_the_scheduler(engine):
    engine.start()
    done = threading.Event()

    def boom():
        raise RuntimeError("boom")

    engine.call_at(time.monotonic(), boom)
    engine.call_at(time.monotonic() + 0.02, done.set)
    assert done.wait(2)
    assert engine.log.events(event="error", route_id=engine.name)


def test_deadlines_microseconds_apart_never_stall_the_loop(engine):
    # Each call schedules the next 10 us ahead, so the loop keeps waiting for
    # its next deadline with a timeout of a few microseconds; none may hang.
    engine.start()
    ticks, done = [0], threading.Event()

    def tick():
        ticks[0] += 1
        if ticks[0] == 20000:
            done.set()
        else:
            engine.call_at(time.monotonic() + 1e-5, tick)

    engine.call_at(time.monotonic(), tick)
    assert done.wait(20), f"stalled after {ticks[0]} calls"


def test_timed_bucket_schedules_its_deadline_and_flush_stops_at_first_unexpired():
    scheduled = []
    step = Aggregate(header("k"), ListAppend(), completion_timeout_ms=100)
    state = AggregateState(step, scheduled.append)
    state.offer(new_exchange(body="a", headers={"k": "1"}))
    state.offer(new_exchange(body="b", headers={"k": "1"}))
    assert len(scheduled) == 1  # one flush pending, at the oldest bucket's deadline
    assert scheduled[0] - time.monotonic() <= 0.1
    time.sleep(0.12)
    state.offer(new_exchange(body="c", headers={"k": "2"}))
    merged = state.flush_expired()
    assert [x.in_msg.body for x in merged] == [("a", "b")]
    assert list(state.buckets) == ["2"]
    assert len(scheduled) == 2


# --- channel under contention --------------------------------------------------------


def test_competing_consumers_on_two_engines_take_each_item_once():
    broker = BrokerService()
    engines = [RouteEngine(name=f"e{k}") for k in range(2)]
    for k, eng in enumerate(engines):
        eng.add_component("broker", BrokerComponent(broker))
        rb = RouteBuilder()
        rb.from_("broker:queue:q", route_id=f"take-{k}").to("buffered:out")
        eng.add_routes(rb)

    def put_range(start):
        for i in range(start, start + 1000):
            broker.send_queue("q", new_exchange(body=i))

    def taken():
        bodies = []
        for eng in engines:
            bodies += [x.in_msg.body for x in tuple(eng._buffer("out").items)]
        return bodies

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        putters = [threading.Thread(target=put_range, args=(k * 1000,)) for k in range(3)]
        for t in putters:
            t.start()
        for t in putters:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in putters)
        # A lost ready signal would leave items on the queue for good.
        assert wait_for(lambda: len(taken()) >= 3000, timeout=10)
    finally:
        sys.setswitchinterval(old)
        for eng in engines:
            eng.stop()
    assert sorted(taken()) == list(range(3000))
    assert all(eng._buffer("out").items for eng in engines)
