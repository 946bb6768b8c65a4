"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are asserted inline at the values stated below.
"""

import random
import re
import threading
import time

from routebus.agent_endpoints import (
    AgentComponent,
    AgentEndpointConfig,
    EndpointConfigError,
    complete_sync_action,
    consume_agent_action,
    consume_agent_message,
    produce_agent_message,
    produce_percept,
)
from routebus.agents import AgentContainer, AgentId, AgentMessage, Async, Sync
from routebus.demo.allocation import compute_allocation
from routebus.demo.config import AgentSpec, ContainerSpec, ScenarioConfig
from routebus.demo.runner import Scenario
from routebus.expressions import body, constant, header
from routebus.messages import ExchangePattern, new_exchange, parse_uri
from routebus.routing import (
    Aggregate,
    EventLog,
    IdempotentRepository,
    ListAppend,
    RouteBuilder,
    RouteEngine,
    SetUnion,
    AggregateState,
    split_exchange,
)
from routebus.services import BrokerService, TableComponent, TableStore
from routebus.terms import ActionTerm, Atom, args_of, functor_of, parse_term, render_term

from conftest import take, wait_for


def report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def cfg_for(uri_text, role):
    return AgentEndpointConfig.from_uri(parse_uri(uri_text), role)


def msg(content, illoc="tell", sender="c1__a", receiver="router", annotations=()):
    return AgentMessage(illoc, sender, receiver, parse_term(content), "m1", tuple(annotations))


# --- criterion 1: endpoint conformance matrix -------------------------------------


def _message_consumer_cases():
    base = lambda **kw: msg("p(1,2)", **kw)
    yield "illoc accept", lambda: consume_agent_message(
        cfg_for("agent:message?illoc_force=tell", "consumer"), base()
    ) is not None
    yield "illoc reject", lambda: consume_agent_message(
        cfg_for("agent:message?illoc_force=achieve", "consumer"), base()
    ) is None
    yield "sender accept", lambda: consume_agent_message(
        cfg_for("agent:message?sender=c1__a", "consumer"), base()
    ) is not None
    yield "sender reject", lambda: consume_agent_message(
        cfg_for("agent:message?sender=c1__b", "consumer"), base()
    ) is None
    yield "receiver accept", lambda: consume_agent_message(
        cfg_for("agent:message?receiver=router", "consumer"), base()
    ) is not None
    yield "receiver reject", lambda: consume_agent_message(
        cfg_for("agent:message?receiver=elsewhere", "consumer"), base()
    ) is None
    yield "receiver=all accepts broadcast", lambda: consume_agent_message(
        cfg_for("agent:message?receiver=all", "consumer"), base(receiver="all")
    ) is not None
    yield "receiver=all rejects addressed", lambda: consume_agent_message(
        cfg_for("agent:message?receiver=all", "consumer"), base(receiver="c1__b")
    ) is None
    yield "annotations accept", lambda: consume_agent_message(
        cfg_for("agent:message?annotations=urgent", "consumer"),
        base(annotations=(parse_term("urgent"),)),
    ) is not None
    yield "annotations reject", lambda: consume_agent_message(
        cfg_for("agent:message?annotations=urgent", "consumer"), base()
    ) is None
    yield "match accept", lambda: consume_agent_message(
        cfg_for(r"agent:message?match=p\(.*\)", "consumer"), base()
    ) is not None
    yield "match reject", lambda: consume_agent_message(
        cfg_for(r"agent:message?match=q\(.*\)", "consumer"), base()
    ) is None

    def two_group_replace():
        cfg = cfg_for(r"agent:message?match=p\((.*),(.*)\)&replace=$2:$1", "consumer")
        x = consume_agent_message(cfg, base())
        return x is not None and x.in_msg.body == "2:1"

    yield "replace with 2 groups", two_group_replace

    def match_gives_text():
        x = consume_agent_message(cfg_for(r"agent:message?match=p\(.*\)", "consumer"), base())
        return x is not None and x.in_msg.body == "p(1,2)"

    yield "match gives the rendered text", match_gives_text

    def headers_set():
        x = consume_agent_message(cfg_for("agent:message", "consumer"), base())
        h = x.in_msg.headers
        return (
            h["illoc_force"] == "tell"
            and h["sender"] == "c1__a"
            and h["receiver"] == "router"
            and h["msg_id"] == "m1"
            and h["annotations"] == ()
            and x.in_msg.body == parse_term("p(1,2)")
        )

    yield "headers and body populated", headers_set


def _action_consumer_cases():
    actor = AgentId("c1", "a")
    term = ActionTerm(parse_term("fetch(1,X)"))
    yield "actor accept", lambda: consume_agent_action(
        cfg_for("agent:action?actor=c1__a", "consumer"), actor, term, Async()
    ) is not None
    yield "actor reject", lambda: consume_agent_action(
        cfg_for("agent:action?actor=c1__b", "consumer"), actor, term, Async()
    ) is None
    yield "actionName accept", lambda: consume_agent_action(
        cfg_for("agent:action?actionName=fetch", "consumer"), actor, term, Async()
    ) is not None
    yield "actionName reject", lambda: consume_agent_action(
        cfg_for("agent:action?actionName=other", "consumer"), actor, term, Async()
    ) is None
    yield "annotations accept", lambda: consume_agent_action(
        cfg_for("agent:action?annotations=src(a)", "consumer"),
        actor,
        ActionTerm(parse_term("go[src(a)]")),
        Async(),
    ) is not None
    yield "annotations reject", lambda: consume_agent_action(
        cfg_for("agent:action?annotations=src(a)", "consumer"), actor, term, Async()
    ) is None
    yield "match accept", lambda: consume_agent_action(
        cfg_for(r"agent:action?match=fetch\(.*\)", "consumer"), actor, term, Async()
    ) is not None
    yield "match reject", lambda: consume_agent_action(
        cfg_for(r"agent:action?match=store\(.*\)", "consumer"), actor, term, Async()
    ) is None

    def replace_two_groups():
        cfg = cfg_for(r"agent:action?match=fetch\((.*),(.*)\)&replace=$1/$2", "consumer")
        x = consume_agent_action(cfg, actor, term, Async())
        return x is not None and x.in_msg.body == "1/X"

    yield "replace with 2 groups", replace_two_groups

    def headers_and_pattern():
        cfg = cfg_for(
            "agent:action?exchangePattern=InOut&actionName=fetch&resultHeaderMap=result:2",
            "consumer",
        )
        x = consume_agent_action(cfg, actor, term, Sync())
        h = x.in_msg.headers
        return (
            x.pattern is ExchangePattern.IN_OUT
            and h["actor"] == "c1__a"
            and h["actionName"] == "fetch"
            and h["params"] == ("1", "X")
            and x.in_msg.body == term.literal
        )

    yield "headers, params, InOut pattern", headers_and_pattern

    def result_map_binding():
        cfg = cfg_for("agent:action?resultHeaderMap=result:2", "consumer")
        reply = new_exchange(ExchangePattern.IN_OUT, None, {"result": '["a@x"]'})
        bound = complete_sync_action(cfg, reply, term)
        return render_term(bound.literal) == 'fetch(1,["a@x"])'

    yield "resultHeaderMap binding", result_map_binding

    def sync_needs_result_map():
        try:
            consume_agent_action(cfg_for("agent:action", "consumer"), actor, term, Sync())
        except EndpointConfigError:
            return True
        return False

    yield "sync without resultHeaderMap rejected", sync_needs_result_map


def _message_producer_cases():
    def check(field, header_value, param_suffix, expect):
        container = AgentContainer("c1")
        agent = container.add_agent("a")
        cfg = cfg_for(f"agent:message?illoc_force=tell{param_suffix}", "producer")
        headers = {"receiver": "c1__a"}
        if header_value is not None:
            headers[field] = header_value
        produce_agent_message(container, cfg, new_exchange(body="ping", headers=headers))
        got = agent.inbox.popleft()
        return expect(got)

    yield "illoc_force header over param", lambda: check(
        "illoc_force", "achieve", "", lambda m: m.illoc_force == "achieve"
    )
    yield "illoc_force param when no header", lambda: check(
        "illoc_force", None, "", lambda m: m.illoc_force == "tell"
    )
    yield "sender header over param", lambda: check(
        "sender", "hdr", "&sender=param", lambda m: m.sender == "hdr"
    )
    yield "sender param when no header", lambda: check(
        "sender", None, "&sender=param", lambda m: m.sender == "param"
    )
    yield "annotations header over param", lambda: check(
        "annotations", ["extra"], "&annotations=cfg", lambda m: m.annotations == (Atom("extra"),)
    )
    yield "annotations param when no header", lambda: check(
        "annotations", None, "&annotations=cfg", lambda m: m.annotations == (Atom("cfg"),)
    )

    def receiver_header_over_param():
        container = AgentContainer("c1")
        a = container.add_agent("a")
        b = container.add_agent("b")
        cfg = cfg_for("agent:message?illoc_force=tell&receiver=c1__b", "producer")
        produce_agent_message(
            container, cfg, new_exchange(body="ping", headers={"receiver": "c1__a"})
        )
        return len(a.inbox) == 1 and len(b.inbox) == 0

    yield "receiver header over param", receiver_header_over_param

    def receiver_defaults_to_broadcast():
        container = AgentContainer("c1")
        agents = [container.add_agent(n) for n in ("a", "b", "c")]
        cfg = cfg_for("agent:message?illoc_force=tell", "producer")
        produce_agent_message(container, cfg, new_exchange(body="ping"))
        return all(len(ag.inbox) == 1 for ag in agents)

    yield "receiver defaults to all", receiver_defaults_to_broadcast

    def receiver_comma_list():
        container = AgentContainer("c1")
        a = container.add_agent("a")
        b = container.add_agent("b")
        c = container.add_agent("c")
        cfg = cfg_for("agent:message?illoc_force=tell", "producer")
        produce_agent_message(
            container, cfg, new_exchange(body="ping", headers={"receiver": "c1__a,c1__b"})
        )
        return len(a.inbox) == 1 and len(b.inbox) == 1 and len(c.inbox) == 0

    yield "receiver comma list delivers each", receiver_comma_list


def _percept_producer_cases():
    def fresh():
        container = AgentContainer("c1")
        return container, container.add_agent("a")

    def persistent_header_over_param():
        container, agent = fresh()
        cfg = cfg_for("agent:percept?persistent=true", "producer")
        produce_percept(container, cfg, new_exchange(body="p(1)", headers={"persistent": "false"}))
        return agent.persistent_snapshot() == [] and len(agent.transient) == 1

    yield "persistent header over param", persistent_header_over_param

    def persistent_param_when_no_header():
        container, agent = fresh()
        cfg = cfg_for("agent:percept?persistent=true", "producer")
        produce_percept(container, cfg, new_exchange(body="p(1)"))
        return len(agent.persistent_snapshot()) == 1

    yield "persistent param when no header", persistent_param_when_no_header

    def update_mode_header_over_param():
        container, agent = fresh()
        cfg = cfg_for("agent:percept?persistent=true", "producer")
        produce_percept(container, cfg, new_exchange(body="p(1)"))
        produce_percept(container, cfg, new_exchange(body="p(2)", headers={"updateMode": "-+"}))
        return [render_term(t) for t in agent.persistent_snapshot()] == ["p(2)"]

    yield "updateMode header over param", update_mode_header_over_param

    def update_mode_param():
        container, agent = fresh()
        cfg = cfg_for("agent:percept?persistent=true&updateMode=-+", "producer")
        produce_percept(container, cfg, new_exchange(body="p(1)"))
        produce_percept(container, cfg, new_exchange(body="p(2)"))
        return [render_term(t) for t in agent.persistent_snapshot()] == ["p(2)"]

    yield "updateMode param replaces", update_mode_param

    def receiver_header_over_param():
        container = AgentContainer("c1")
        a = container.add_agent("a")
        b = container.add_agent("b")
        cfg = cfg_for("agent:percept?receiver=c1__b", "producer")
        produce_percept(container, cfg, new_exchange(body="p(1)", headers={"receiver": "c1__a"}))
        return len(a.transient) == 1 and len(b.transient) == 0

    yield "receiver header over param", receiver_header_over_param

    def annotations_header_over_param():
        container, agent = fresh()
        cfg = cfg_for("agent:percept?annotations=cfg", "producer")
        produce_percept(
            container, cfg, new_exchange(body="p(1)", headers={"annotations": ["hdr"]})
        )
        return render_term(agent.transient[0].literal) == "p(1)[hdr]"

    yield "annotations header over param", annotations_header_over_param

    def default_transient_accumulate():
        container, agent = fresh()
        cfg = cfg_for("agent:percept", "producer")
        produce_percept(container, cfg, new_exchange(body="p(1)"))
        produce_percept(container, cfg, new_exchange(body="p(2)"))
        return len(agent.transient) == 2 and agent.persistent_snapshot() == []

    yield "default is transient accumulate", default_transient_accumulate

    def replace_applies_to_transients():
        container, agent = fresh()
        cfg = cfg_for("agent:percept?updateMode=-+", "producer")
        produce_percept(container, cfg, new_exchange(body="p(1)"))
        produce_percept(container, cfg, new_exchange(body="p(2)"))
        return [render_term(e.literal) for e in agent.transient] == ["p(2)"]

    yield "replace mode applies to transients", replace_applies_to_transients


def test_criterion_1_endpoint_conformance_matrix():
    t0 = time.monotonic()
    failures = []
    total = 0
    for group, cases in (
        ("message-consumer", _message_consumer_cases()),
        ("action-consumer", _action_consumer_cases()),
        ("message-producer", _message_producer_cases()),
        ("percept-producer", _percept_producer_cases()),
    ):
        for label, check in cases:
            total += 1
            if not check():
                failures.append(f"{group}: {label}")
    elapsed = time.monotonic() - t0
    assert not failures, f"failing matrix cases: {failures}"
    assert elapsed < 5.0, f"matrix took {elapsed:.2f}s"
    assert total >= 40
    report(1, f"endpoint conformance matrix, {total} cases in {elapsed:.2f}s")


# --- criterion 2: synchronous table-backed action ------------------------------------


def test_criterion_2_account_query_action():
    log = EventLog()
    container = AgentContainer("c1", log=log)
    engine = RouteEngine(log=log)
    engine.add_component("agent", AgentComponent(container))
    tables = TableStore()
    tables.add_table(
        "users",
        ("email", "interests"),
        [
            {"email": "a@x", "interests": ""},
            {"email": "b@x", "interests": ""},
            {"email": "c@x", "interests": ""},
        ],
    )
    engine.add_component("table", TableComponent(tables))
    rb = RouteBuilder()
    (
        rb.from_(
            "agent:action?exchangePattern=InOut"
            "&actionName=get_email_accounts&resultHeaderMap=result:1",
            route_id="account-query",
        )
        .set_body(constant("select email from users"))
        .to("table:dataSource")
        .transform_rows_to_quoted_list("email")
        .set_header("result", body())
    )
    engine.add_routes(rb)
    try:
        agent = container.add_agent("alice")
        action = ActionTerm(parse_term("get_email_accounts(Accounts)"))
        t0 = time.monotonic()
        result = container.perform_action(agent, action, Sync(2000)).result()
        latency_ms = (time.monotonic() - t0) * 1000
        assert render_term(result.literal) == 'get_email_accounts(["a@x","b@x","c@x"])'
        assert latency_ms < 100, f"round trip took {latency_ms:.1f} ms"
    finally:
        engine.stop()
    report(2, f"account-query action bound in {latency_ms:.1f} ms")


# --- criterion 3: registration and membership tracking --------------------------------


def test_criterion_3_registration_membership_and_expiry():
    config = ScenarioConfig(
        containers=[
            ContainerSpec("c1", "static", [AgentSpec("alice"), AgentSpec("bob")]),
            ContainerSpec("c2", "static", [AgentSpec("carol")]),
        ],
        users=[{"email": "a@x", "interests": "budget"}],
    )
    config.aggregate_timeout_ms = 400
    scenario = Scenario(config)
    try:
        scenario.start()
        children = scenario.coord.get_children("/agents")
        assert len(children) == 3
        assert all(re.fullmatch(r"agent\d{10}", name) for name in children)

        # Duplicate registration from one agent is dropped by the idempotent consumer.
        c1 = scenario.containers["c1"]
        alice = c1.agents["c1__alice"]
        c1.perform_action(alice, ActionTerm(Atom("register")), Async())
        assert wait_for(
            lambda: scenario.log.events(event="drop", route_id="c1:register"), timeout=8.0
        )
        assert len(scenario.coord.get_children("/agents")) == 3

        # The membership percept arrived persistent and replacing.
        assert sorted(alice.memory["agents"]) == ["c1__alice", "c1__bob", "c2__carol"]

        scenario.coord.expire_session(scenario.containers["c2"].session)
        remaining = [c1.agents["c1__alice"], c1.agents["c1__bob"]]
        assert wait_for(
            lambda: all(
                agent.memory.get("agents") == ["c1__alice", "c1__bob"] for agent in remaining
            ),
            timeout=8.0,
        ), "remaining agents did not perceive the shrunken membership"
        for agent in remaining:
            shapes = [(functor_of(t), len(args_of(t))) for t in agent.persistent_snapshot()]
            assert len(shapes) == len(set(shapes)), f"stale stored percepts: {shapes}"
    finally:
        scenario.stop()
    report(3, "3 registrations, 1 duplicate dropped, expiry shrinks membership to 2")


# --- criterion 4: mail scatter-gather-forward ------------------------------------------


def test_criterion_4_mail_forwarding_matches_reply_union():
    config = ScenarioConfig.default()
    assert config.aggregate_timeout_ms == 2000
    config.mails = [
        {
            "to": "to.share",
            "from": "sender@corp",
            "subject": "budget and travel notes",
            "body": "numbers and itineraries",
        }
    ]
    scenario = Scenario(config)
    t0 = time.monotonic()
    try:
        scenario.start()
        assert wait_for(lambda: scenario.forward_events(), timeout=6.0)
        wall = time.monotonic() - t0
        # Reply oracle: each agent contributes the keyword matches among its
        # allocated accounts; the forward must equal the union.
        expected_union = set()
        views = scenario.allocations()
        haystack = "budget and travel notes numbers and itineraries".lower()
        for agent_name, view in views.items():
            for email in view[agent_name]:
                interests = next(
                    u["interests"] for u in config.users if u["email"] == email
                )
                if any(k in haystack for k in interests.split(",") if k):
                    expected_union.add(email)
        ((_, detail),) = scenario.forward_events()
        recipients = set(detail.split(" subject=")[0][len("to=[") : -1].split(","))
        assert recipients == expected_union == {"a@x", "b@x"}
        for email in recipients:
            assert len(scenario.mail.folder(email, "inbox")) == 1
        assert wall < 5.0, f"scenario took {wall:.2f}s"
    finally:
        scenario.stop()
    report(4, f"forward union {sorted(recipients)} in {wall:.2f}s")


# --- criterion 5: inter-container message bridge ----------------------------------------


def test_criterion_5_bridge_round_trip():
    config = ScenarioConfig(
        containers=[
            ContainerSpec("c1", "static", [AgentSpec("ann")]),
            ContainerSpec("c2", "static", [AgentSpec("bob")]),
        ],
        route_sets={"inter_container"},
    )
    scenario = Scenario(config)
    try:
        scenario.build()
        for engine in scenario.engines.values():
            engine.start()
        sent = AgentMessage(
            "tell", "c1__ann", "c2__bob", parse_term('offer("tickets",2)'), "c1-m1"
        )
        scenario.containers["c1"].route_local_message(sent)
        bob = scenario.containers["c2"].agents["c2__bob"]
        assert wait_for(lambda: len(bob.inbox) > 0, timeout=4.0)
        got = bob.inbox.popleft()
        assert got.illoc_force == sent.illoc_force
        assert got.sender == sent.sender
        assert got.receiver == sent.receiver
        assert got.content == sent.content
    finally:
        scenario.stop()
    report(5, "tell crossed the broker with fields intact")


# --- criterion 6: routing-pattern property suite -----------------------------------------


def test_criterion_6_eip_properties():
    rng = random.Random(20260810)

    # Split then list-append aggregate with size = original length is identity.
    for _ in range(1000):
        items = [rng.choice("abcdef") + str(rng.randrange(100)) for _ in range(rng.randrange(1, 9))]
        x = new_exchange(ExchangePattern.IN_ONLY, list(items), {"k": "const"})
        children = split_exchange(x, body())
        state = AggregateState(
            Aggregate(header("k"), ListAppend(), completion_size=len(items))
        )
        merged = None
        for child in children:
            merged = state.offer(child) or merged
        assert merged is not None
        assert merged.in_msg.body == tuple(items)

    # Set-union aggregation is invariant under reply order.
    replies = ['["u1@x"]', '["u2@x","u3@x"]', '["u1@x","u4@x"]', "[]", '["u5@x"]']
    expected = None
    for _ in range(500):
        shuffled = replies[:]
        rng.shuffle(shuffled)
        state = AggregateState(
            Aggregate(header("id"), SetUnion(), completion_size=len(shuffled))
        )
        merged = None
        for reply in shuffled:
            merged = state.offer(new_exchange(body=reply, headers={"id": "k"})) or merged
        if expected is None:
            expected = merged.in_msg.body
        assert merged.in_msg.body == expected
    assert expected == ("u1@x", "u2@x", "u3@x", "u4@x", "u5@x")

    # The idempotent filter drops exactly the duplicates.
    keys = [rng.choice("abcdefgh") for _ in range(2000)]
    repo = IdempotentRepository(100)
    drops = 0
    for key in keys:
        if repo.contains(key):
            drops += 1
        else:
            repo.add(key)
    assert drops == len(keys) - len(set(keys))

    # Broker queues deliver each message exactly once across 4 competing consumers.
    broker = BrokerService()
    for i in range(1000):
        broker.send_queue("work", new_exchange(body=i))
    seen: list[int] = []
    lock = threading.Lock()

    def consume():
        while True:
            item = take(broker.queue("work"), 0.2)
            if item is None:
                return
            with lock:
                seen.append(item.in_msg.body)

    workers = [threading.Thread(target=consume) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert sorted(seen) == list(range(1000))
    report(6, "split/aggregate identity x1000, set-union x500, dedup exact, queue exactly-once")


# --- criterion 7: suspend on plan change, timer-driven resume ------------------------------


def test_criterion_7_mail_route_suspension_and_timed_resume():
    config = ScenarioConfig.default()
    config.aggregate_timeout_ms = 400
    config.resume_delay_ms = 500
    scenario = Scenario(config)
    try:
        scenario.start()
        assert wait_for(lambda: scenario.forward_events(), timeout=6.0)
        mail_route = scenario.mail_route_id()

        scenario.publish_plan_change("a@x")
        assert wait_for(
            lambda: any(
                r.detail == "suspended"
                for r in scenario.log.events(event="lifecycle", route_id=mail_route)
            ),
            timeout=8.0,
        )
        receives_before = len(scenario.log.events(event="receive", route_id=mail_route))
        scenario.inject_mail("late@corp", "travel plans", "itinerary inside")
        time.sleep(0.25)  # well inside the suspension window
        suspended_now = [
            r.detail for r in scenario.log.events(event="lifecycle", route_id=mail_route)
        ]
        assert "resumed" not in suspended_now
        assert len(scenario.log.events(event="receive", route_id=mail_route)) == receives_before

        assert wait_for(
            lambda: any(
                r.detail == "resumed"
                for r in scenario.log.events(event="lifecycle", route_id=mail_route)
            ),
            timeout=3.0,
        )
        lifecycle = scenario.log.events(event="lifecycle", route_id=mail_route)
        suspended_ts = next(r.ts for r in lifecycle if r.detail == "suspended")
        resumed_ts = next(r.ts for r in lifecycle if r.detail == "resumed")
        gap_ms = (resumed_ts - suspended_ts) * 1000
        assert abs(gap_ms - config.resume_delay_ms) <= 50, f"resume after {gap_ms:.0f} ms"
        # The mail injected during suspension is polled after the resume.
        assert wait_for(
            lambda: len(scenario.log.events(event="receive", route_id=mail_route))
            > receives_before,
            timeout=8.0,
        )
    finally:
        scenario.stop()
    report(7, f"zero polls while suspended; resumed after {gap_ms:.0f} ms (target 500 +/- 50)")


# --- criterion 8: allocation partition properties -------------------------------------------


def test_criterion_8_allocation_partition_and_agreement():
    rng = random.Random(99)
    for case in range(200):
        agent_count = rng.randrange(1, 9)
        agents = [f"c{rng.randrange(3)}__a{i}" for i in range(agent_count)]
        accounts = [f"u{i}@x" for i in range(rng.randrange(0, 30))]
        view = compute_allocation(agents, accounts)
        assigned = [email for slot in view.values() for email in slot]
        assert sorted(assigned) == sorted(accounts), "allocation must cover all accounts"
        assert len(assigned) == len(set(assigned)), "allocation must be disjoint"
        # Every agent computes the same view regardless of input order.
        for _ in range(3):
            shuffled_agents = agents[:]
            shuffled_accounts = accounts[:]
            rng.shuffle(shuffled_agents)
            rng.shuffle(shuffled_accounts)
            assert compute_allocation(shuffled_agents, shuffled_accounts) == view
    report(8, "partition + agreement over 200 randomized agent/account sets")


# --- criterion 9: replay determinism ---------------------------------------------------------


def test_criterion_9_two_runs_identical_forward_events():
    def one_run():
        config = ScenarioConfig.default()
        scenario = Scenario(config)
        try:
            scenario.start()
            assert wait_for(lambda: scenario.forward_events(), timeout=6.0)
            time.sleep(0.3)  # let any stragglers land
            return scenario.forward_events()
        finally:
            scenario.stop()

    first = one_run()
    second = one_run()
    assert first == second
    assert first, "expected at least one forward event"
    report(9, f"both runs produced {first}")
