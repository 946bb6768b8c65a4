"""The benchmark's tracer (``bench/tracer.py``) wraps program names by their
current spelling; a rename or deletion of one must fail here, not only in a
traced benchmark run."""

import sys
import time
from pathlib import Path

from routebus import agent_endpoints
from routebus.agent_endpoints import AgentComponent
from routebus.agents import AgentContainer
from routebus.demo import Scenario, ScenarioConfig
from routebus.expressions import constant, header
from routebus.messages import new_exchange, parse_uri
from routebus.routing import ListAppend, RouteBuilder, RouteEngine

from conftest import wait_for

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def _tracer():
    sys.path.insert(0, BENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(BENCH)
    return Tracer()


def test_tracer_wraps_every_hook_and_puts_them_back():
    original = agent_endpoints.produce_percept
    tracer = _tracer()
    try:
        tracer.install()
        assert agent_endpoints.produce_percept is not original
    finally:
        tracer.uninstall()
    assert agent_endpoints.produce_percept is original


def test_agent_producers_call_the_wrapped_functions():
    container = AgentContainer("c1")
    agent = container.add_agent("a")
    component = AgentComponent(container)
    # Made before the wrapping: a producer finds the functions at call time.
    producers = {
        body: component.create_producer(parse_uri(f"agent:{path}"), None, "r")
        for path, body in (("message", "hello"), ("percept", "p(1)"))
    }
    tracer = _tracer()
    try:
        tracer.install()
        for body, producer in producers.items():
            producer.process(new_exchange(body=body, headers={"illoc_force": "tell"}))
    finally:
        tracer.uninstall()
    labels = {span[0] for span in tracer.spans}
    assert {"agent_endpoints.produce_message", "agent_endpoints.produce_percept"} <= labels
    assert len(agent.inbox) == 1 and len(agent.transient) == 1


def test_routes_started_before_the_install_call_the_wrapped_names():
    # A route makes its steps when it is added: they must find the wrapped
    # names at call time, not hold the originals.
    engine = RouteEngine(name="traced")
    rb = RouteBuilder()
    (
        rb.from_("direct:in", route_id="r")
        .set_header("k", constant("key"))
        .aggregate(header("k"), ListAppend())
        .completion_timeout(50)
        .to("buffered:out")
    )
    (route,) = engine.add_routes(rb)
    out = engine._buffer("out")
    tracer = _tracer()
    try:
        tracer.install()
        for body in ("a", "b"):
            engine.send("direct:in", new_exchange(body=body))
        assert wait_for(lambda: out.items, timeout=5.0)
    finally:
        tracer.uninstall()
        engine.stop()
    labels = [span[0] for span in tracer.spans]
    assert labels.count("expressions.eval") == 4  # the header and the correlation, twice
    assert "routing.flush" in labels
    assert list(tracer.states.values()) == route._aggregates
    assert out.take().in_msg.body == ("a", "b")


def test_relevance_view_is_built_once_per_change():
    config = ScenarioConfig.default()
    config.aggregate_timeout_ms = 300
    tracer = _tracer()
    tracer.install()
    scenario = Scenario(config)
    try:
        scenario.start()
        assert wait_for(lambda: len(scenario.forward_events()) == 1, timeout=6.0)
        first = len(tracer.spans)
        for i in range(9):
            scenario.inject_mail("x@corp", f"budget {i}", "travel notes")
        assert wait_for(lambda: len(scenario.forward_events()) == 10, timeout=6.0)
    finally:
        scenario.stop()
        tracer.uninstall()
    labels = [span[0] for span in tracer.spans[first:]]
    assert "routing.collect-replies" in labels
    assert "demo.compute_allocation" not in labels
    assert "services.table.rows" not in labels
