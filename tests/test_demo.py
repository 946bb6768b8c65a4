import logging
import math
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from routebus import agent_endpoints
from routebus.agents import (
    AgentContainer,
    AgentMessage,
    BehaviorRule,
    Persistence,
    SendMessage,
    UpdateMode,
)
from routebus.agent_endpoints import AgentComponent
from routebus.routing import RouteBuilder, RouteEngine, RouteService, RouteState
from routebus.services import CoordComponent, CoordService, MailStore, TableStore
from routebus.demo.allocation import EmptyAgentListError, compute_allocation
from routebus.demo.behaviors import relevance_behaviors
from routebus.demo.config import (
    AgentSpec,
    ConfigError,
    ContainerSpec,
    ScenarioConfig,
    append_record,
    load_records,
)
from routebus.demo.runner import Scenario
from routebus.demo import cli, runner, routes as route_sets
from routebus.terms import Compound, ListTerm, Str, parse_term, render_term

from conftest import wait_for


# --- allocation ----------------------------------------------------------------


def test_allocation_modulo_rule():
    alloc = compute_allocation(["a1", "a2"], ["u1", "u2", "u3", "u4"])
    assert alloc == {"a1": ["u1", "u3"], "a2": ["u2", "u4"]}


def test_allocation_single_agent_gets_all():
    alloc = compute_allocation(["only"], ["u1", "u2"])
    assert alloc == {"only": ["u1", "u2"]}


def test_allocation_surplus_agents_get_empty_lists():
    alloc = compute_allocation(["a", "b", "c"], ["u1"])
    assert alloc == {"a": ["u1"], "b": [], "c": []}


def test_allocation_empty_agent_list_rejected():
    with pytest.raises(EmptyAgentListError):
        compute_allocation([], ["u1"])


def test_allocation_sorts_inputs():
    assert compute_allocation(["b", "a"], ["u2", "u1"]) == compute_allocation(
        ["a", "b"], ["u1", "u2"]
    )


# --- config --------------------------------------------------------------------


def test_default_config_is_valid():
    config = ScenarioConfig.default()
    assert config.containers[0].agents[0].local_name == "alice"
    assert config.aggregate_timeout_ms == 2000


def test_unknown_route_set_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(containers=[ContainerSpec("c", "static", [])], route_sets={"nope"})


def test_duplicate_agent_names_rejected():
    with pytest.raises(ConfigError):
        ContainerSpec("c", "static", [AgentSpec("a"), AgentSpec("a")])


def test_duplicate_user_emails_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(
            containers=[ContainerSpec("c", "static", [])],
            users=[{"email": "a@x"}, {"email": "a@x"}],
        )


def test_record_file_round_trip(tmp_path):
    path = tmp_path / "users.tbl"
    append_record(path, {"email": "a@x", "interests": "budget,planning"})
    append_record(path, {"email": "b@x", "interests": "travel"})
    records = load_records(path)
    assert records == [
        {"email": "a@x", "interests": "budget,planning"},
        {"email": "b@x", "interests": "travel"},
    ]


def test_record_field_may_contain_spaces(tmp_path):
    path = tmp_path / "mail.txt"
    append_record(path, {"subject": "budget review", "body": "see the draft"})
    assert load_records(path) == [{"subject": "budget review", "body": "see the draft"}]


def test_record_rejects_separator_in_value(tmp_path):
    with pytest.raises(ConfigError):
        append_record(tmp_path / "x", {"body": "a|b"})


def write_config(tmp_path) -> Path:
    (tmp_path / "users.tbl").write_text(
        "email=a@x|interests=budget\nemail=b@x|interests=travel\n", encoding="utf-8"
    )
    (tmp_path / "mail.txt").write_text(
        "to=to.share|from=x@corp|subject=budget plan|body=numbers inside\n", encoding="utf-8"
    )
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "\n".join(
            [
                "[scenario]",
                "route_sets = use_case",
                "aggregate_timeout_ms = 400",
                "resume_delay_ms = 200",
                "",
                "[container:main]",
                "id_mode = static",
                "agents =",
                "    alice relevance",
                "    bob relevance",
                "",
                "[users]",
                "file = users.tbl",
                "",
                "[mail]",
                "file = mail.txt",
            ]
        ),
        encoding="utf-8",
    )
    return cfg


def test_load_config_file(tmp_path):
    config = ScenarioConfig.load(write_config(tmp_path))
    assert [a.local_name for a in config.containers[0].agents] == ["alice", "bob"]
    assert config.aggregate_timeout_ms == 400
    assert config.users[0]["email"] == "a@x"
    assert config.mails[0]["subject"] == "budget plan"


def test_agent_line_with_extra_token_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path)
    cfg.write_text(
        cfg.read_text(encoding="utf-8").replace("alice relevance", "alice relevance extra"),
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="alice relevance extra"):
        ScenarioConfig.load(cfg)


# --- scenario ------------------------------------------------------------------


@pytest.fixture
def fast_scenario():
    config = ScenarioConfig.default()
    config.aggregate_timeout_ms = 500
    scenario = Scenario(config)
    yield scenario
    scenario.stop()


def test_scenario_forwards_to_keyword_matches(fast_scenario, monkeypatch):
    # Terms stay terms inside a process: the relevance request reaches the
    # agents as the term the route built, so it must be one whose canonical
    # text parses back to it, and the agent endpoints parse no text at all.
    parsed = []
    received = []
    deliver_local = AgentContainer.deliver_local

    def recording_parse_term(text):
        parsed.append(text)
        return parse_term(text)

    def recording_deliver_local(container, msg):
        received.append(msg.content)
        return deliver_local(container, msg)

    monkeypatch.setattr(agent_endpoints, "parse_term", recording_parse_term)
    monkeypatch.setattr(AgentContainer, "deliver_local", recording_deliver_local)
    fast_scenario.start()
    assert wait_for(lambda: fast_scenario.forward_events(), timeout=6.0)
    ((route_id, detail),) = fast_scenario.forward_events()
    assert detail == "to=[a@x] subject=budget review"
    requests = [t for t in received if t.functor == "check_relevance"]
    assert requests
    for term in requests:
        assert parse_term(render_term(term)) == term
    assert parsed == []

    # Between containers the broker carries text: every text parsed where it
    # enters the other container is canonical.
    parsed.clear()
    config = ScenarioConfig(
        containers=[
            ContainerSpec("c1", "static", [AgentSpec("ann")]),
            ContainerSpec("c2", "static", [AgentSpec("bob")]),
        ],
        route_sets={"inter_container"},
    )
    bridge = Scenario(config)
    try:
        bridge.build()
        for engine in bridge.engines.values():
            engine.start()
        content = parse_term('offer("say \\"hi\\"",2,[a, b])')
        sent = AgentMessage("tell", "c1__ann", "c2__bob", content, "c1-m1")
        bridge.containers["c1"].route_local_message(sent)
        bob = bridge.containers["c2"].agents["c2__bob"]
        assert wait_for(lambda: len(bob.inbox) > 0, timeout=6.0)
        assert bob.inbox.popleft().content == content
    finally:
        bridge.stop()
    assert render_term(content) in parsed
    for text in parsed:
        assert render_term(parse_term(text)) == text


def open_buckets(scenario):
    engine = scenario.engines["main"]
    return sum(
        len(state.buckets)
        for service in engine._services.values()
        for state in service._aggregates
    )


def test_hostile_mail_content_is_forwarded_intact(fast_scenario):
    # A quote in a subject and a backslash in a body reach the agents as string
    # arguments of the relevance request, so both mails are forwarded as sent.
    fast_scenario.config.mails = []
    fast_scenario.start()
    fast_scenario.inject_mail("x@corp", 'budget "final"', "see the draft")
    fast_scenario.inject_mail("y@corp", "travel notes", "C:\\trips\\plan")
    assert wait_for(lambda: len(fast_scenario.forward_events()) == 2, timeout=6.0)
    details = sorted(detail for _, detail in fast_scenario.forward_events())
    assert details == ['to=[a@x] subject=budget "final"', "to=[b@x] subject=travel notes"]
    (quoted,) = fast_scenario.mail.folder("a@x", "inbox")
    (escaped,) = fast_scenario.mail.folder("b@x", "inbox")
    assert (quoted.subject, escaped.body) == ('budget "final"', "C:\\trips\\plan")
    assert open_buckets(fast_scenario) == 0
    assert fast_scenario.log.events(event="error") == []


def test_default_scenario_forwards_a_matching_mail_once_both_agents_replied():
    # The replies complete the mail by count, so the 2 s timeout is not waited for.
    config = ScenarioConfig.default()
    config.mails = []
    scenario = Scenario(config)
    scenario.start()
    try:
        t0 = time.monotonic()
        scenario.inject_mail("x@corp", "budget travel", "see the notes")
        assert wait_for(scenario.forward_events, timeout=2.0)
        assert time.monotonic() - t0 < 0.5
        assert forwarded_to(scenario, "budget travel") == ["to=[a@x,b@x]"]
    finally:
        scenario.stop()


def replace_relevance_hook(scenario, local_name, hook):
    scenario.build()
    agent = scenario.containers["main"].agents[f"main__{local_name}"]
    agent.behaviors = [
        BehaviorRule(r.trigger, hook, r.name) if r.name == "relevance" else r
        for r in agent.behaviors
    ]
    return agent


def test_agent_whose_hook_raises_leaves_the_mail_to_the_fallback_timeout(fast_scenario):
    def boom(agent, msg):
        raise RuntimeError("relevance hook failed")

    fast_scenario.config.mails = []
    replace_relevance_hook(fast_scenario, "bob", boom)
    fast_scenario.start()
    t0 = time.monotonic()
    fast_scenario.inject_mail("x@corp", "budget travel", "see the notes")
    assert wait_for(fast_scenario.forward_events, timeout=6.0)
    assert time.monotonic() - t0 >= 0.5  # the timeout forwarded what had arrived
    time.sleep(0.6)  # a second timeout passes: nothing more is forwarded
    assert forwarded_to(fast_scenario, "budget travel") == ["to=[a@x]"]
    assert fast_scenario.log.events(event="agent-error")
    fast_scenario.stop()
    assert open_buckets(fast_scenario) == 0


def test_reply_after_the_timeout_is_dropped_and_the_mail_forwarded_once(fast_scenario):
    requests = []

    def silent(agent, msg):
        requests.append(msg.content.args[0].text)
        return []

    fast_scenario.config.mails = []
    bob = replace_relevance_hook(fast_scenario, "bob", silent)
    fast_scenario.start()
    fast_scenario.inject_mail("x@corp", "budget travel", "see the notes")
    assert wait_for(fast_scenario.forward_events, timeout=6.0)
    (mail_id,) = requests
    late = AgentMessage("tell", bob.full_name, "router", relevant(mail_id, ["b@x"]), "late-1")
    fast_scenario.containers["main"].route_local_message(late)
    assert wait_for(
        lambda: fast_scenario.log.events(event="drop", route_id="main:forward"),
        timeout=6.0,
    )
    (drop,) = fast_scenario.log.events(event="drop", route_id="main:forward")
    assert drop.detail == "late reply"
    time.sleep(0.6)  # past the timeout a bucket of the late reply would have had
    assert forwarded_to(fast_scenario, "budget travel") == ["to=[a@x]"]
    fast_scenario.stop()
    assert open_buckets(fast_scenario) == 0


def test_reply_after_its_key_reopened_is_an_error_on_forward_and_sends_no_mail(fast_scenario):
    requests = []

    def silent(agent, msg):
        requests.append(msg.content.args[0].text)
        return []

    fast_scenario.config.mails = []
    bob = replace_relevance_hook(fast_scenario, "bob", silent)
    fast_scenario.start()
    fast_scenario.inject_mail("x@corp", "budget travel", "see the notes")
    assert wait_for(fast_scenario.forward_events, timeout=6.0)
    (mail_id,) = requests
    time.sleep(1.2)  # more than two timeouts after the mail: its key has reopened
    late = AgentMessage("tell", bob.full_name, "router", relevant(mail_id, ["b@x"]), "late-1")
    fast_scenario.containers["main"].route_local_message(late)
    assert wait_for(
        lambda: fast_scenario.log.events(event="error", route_id="main:forward"), timeout=6.0
    )
    (error,) = fast_scenario.log.events(event="error")
    assert "MissingMailError" in error.detail
    assert [detail for _, detail in fast_scenario.forward_events()] == [
        "to=[a@x] subject=budget travel"
    ]
    fast_scenario.stop()
    assert open_buckets(fast_scenario) == 0


def test_mail_whose_ask_step_fails_ends_once_on_forward_at_the_timeout(fast_scenario):
    fast_scenario.config.mails = []
    fast_scenario.start()
    fast_scenario.engines["main"].controller("main:ask-agents").stop()
    t0 = time.monotonic()
    fast_scenario.inject_mail("x@corp", "budget travel", "see the notes")
    assert wait_for(
        lambda: fast_scenario.log.events(event="error", route_id="main:forward"), timeout=6.0
    )
    assert time.monotonic() - t0 >= 0.5  # the mail's bucket timed out
    # The ask leg fails the mail's exchange on the poller once.
    assert len(fast_scenario.log.events(event="error", route_id="main:mail-poll")) == 1
    time.sleep(0.6)  # a second timeout passes: nothing more ends on forward
    outcomes = [
        r.event
        for r in fast_scenario.log.events(route_id="main:forward")
        if r.event in ("forward", "drop", "error")
    ]
    assert outcomes == ["error"]
    fast_scenario.stop()
    assert open_buckets(fast_scenario) == 0


def test_mail_outcomes_are_logged_on_the_forward_route(fast_scenario, caplog):
    # bench/session.py reads each mail's outcome by these route ids: the
    # forward event, or an error, on <container>:forward (or the poller).
    fast_scenario.config.mails = []
    fast_scenario.start()
    fast_scenario.inject_mail("x@corp", "budget review", "see the notes")
    fast_scenario.inject_mail("y@corp", "lunch menu", "soup of the day")
    assert wait_for(
        lambda: fast_scenario.forward_events() and fast_scenario.log.events(event="error"),
        timeout=6.0,
    )
    assert [route_id for route_id, _ in fast_scenario.forward_events()] == ["main:forward"]
    (error,) = fast_scenario.log.events(event="error")
    assert error.route_id == "main:forward"
    assert "MissingRecipientsError" in error.detail
    assert not fast_scenario.log.events(event="error", route_id="main:collect-replies")
    # The event holds the error: the mail that matches nobody logs no warning
    # or traceback at the default level.
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_plan_changes_add_no_routes(fast_scenario):
    fast_scenario.config.resume_delay_ms = 100
    fast_scenario.start()
    engine = fast_scenario.engines["main"]
    mail_route = fast_scenario.mail_route_id()
    before = set(engine._services)
    for _ in range(5):
        fast_scenario.publish_plan_change("a@x")
    assert wait_for(
        lambda: len(fast_scenario.log.events(event="receive", route_id="main:plan-suspend")) == 5,
        timeout=6.0,
    )
    assert wait_for(
        lambda: any(
            r.detail == "resumed"
            for r in fast_scenario.log.events(event="lifecycle", route_id=mail_route)
        ),
        timeout=6.0,
    )
    time.sleep(0.3)  # every scheduled resume has run
    assert set(engine._services) == before
    assert engine.controller(mail_route).state is RouteState.STARTED


def test_idle_scenario_does_no_work(monkeypatch):
    calls = Counter()
    for owner, name in (
        (AgentContainer, "run_cycle"),
        (MailStore, "poll"),
        (RouteService, "_flush_expired"),
    ):

        def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    scenario = Scenario(ScenarioConfig.default())
    scenario.start()
    try:
        time.sleep(0.2)  # the start-up mail and agent cycles settle
        calls.clear()
        time.sleep(0.5)
        assert calls == Counter()
    finally:
        scenario.stop()


def test_scenario_stop_leaves_no_threads():
    before = set(threading.enumerate())
    scenario = Scenario(ScenarioConfig.default())
    scenario.start()
    # One loop thread per engine; the agents cycle on it.
    assert {t.name for t in set(threading.enumerate()) - before} == {"main-loop"}
    scenario.stop()
    assert [t.name for t in threading.enumerate() if t not in before] == []


def test_a_burst_of_three_reply_timeouts_of_work_forwards_every_mail_once():
    # The burst is sized from the drain time of a smaller one, measured
    # first, so its work is three reply timeouts on any host.  A poll takes
    # one round of the burst and the rest waits unread in the store, so a
    # mail's reply timeout, which counts from its poll, covers its round only.
    config = ScenarioConfig.default()
    config.aggregate_timeout_ms = 300
    scenario = Scenario(config)
    scenario.mail.add_account("a@x")
    scenario.start()
    engine = scenario.engines["main"]

    def forwarded():  # every "budget" mail goes to a@x only
        return len(scenario.mail.folder("a@x", "inbox"))

    def drain(tag, mails, timeout):
        """Inject ``mails`` mails while the loop is held; the seconds from the
        release until all are forwarded, or None."""
        want = forwarded() + mails
        held, release = threading.Event(), threading.Event()
        engine.submit(lambda: (held.set(), release.wait(5.0)))
        assert held.wait(2.0)
        for k in range(mails):
            scenario.inject_mail("x@corp", f"budget {tag}{k}", "draft")
        t0 = time.monotonic()
        release.set()
        while forwarded() < want:
            if time.monotonic() - t0 > timeout:
                return None
            time.sleep(0.001)
        return time.monotonic() - t0

    try:
        assert wait_for(lambda: forwarded() == 1, timeout=6.0)  # the fixture mail
        per_mail = drain("c", 500, timeout=5.0) / 500
        burst = math.ceil(3 * config.aggregate_timeout_ms / 1000 / per_mail)
        assert drain("b", burst, timeout=10 * burst * per_mail) is not None
        subjects = Counter(d.rsplit(" subject=", 1)[1] for _, d in scenario.forward_events())
        assert [n for s, n in subjects.items() if s.startswith("budget b")] == [1] * burst
        assert scenario.log.events(event="error") == []
    finally:
        scenario.stop()


def test_scenario_started_again_after_stop_forwards_each_mail_once():
    before = set(threading.enumerate())
    config = ScenarioConfig.default()
    config.aggregate_timeout_ms = 500
    scenario = Scenario(config)
    scenario.start()
    try:
        assert wait_for(lambda: forwarded_to(scenario, "budget review"), timeout=6.0)
        scenario.stop()
        scenario.start()
        scenario.inject_mail("y@corp", "travel notes", "see the plan")
        assert wait_for(lambda: forwarded_to(scenario, "travel notes"), timeout=6.0)
        time.sleep(0.6)  # past the reply timeout: a second forward would have come
        assert forwarded_to(scenario, "travel notes") == ["to=[b@x]"]
        assert forwarded_to(scenario, "budget review") == ["to=[a@x]"]
        assert scenario.log.events(event="error") == []
    finally:
        scenario.stop()
    assert [t.name for t in threading.enumerate() if t not in before] == []


def test_membership_names_nobody_for_a_node_gone_before_its_lookup():
    # The loop is held while bob registers, bob's session expires and carol
    # registers, so the watch queues three child lists; bob's node is gone
    # when the first list is read, and the third list is as long as it.
    coord = CoordService()
    coord.create(None, "/agents")
    container = AgentContainer("c")
    alice = container.add_agent("alice")
    engine = RouteEngine(log=container.log)
    engine.add_component("agent", AgentComponent(container))
    engine.add_component("coord", CoordComponent(coord))

    def register(name):
        session = coord.create_session()
        coord.create(session, "/agents/agent", name, "EPHEMERAL_SEQUENTIAL")
        return session

    def membership():
        return [render_term(t) for t in alice.persistent_snapshot()]

    register("c__alice")
    engine.add_routes(route_sets.membership_routes(RouteBuilder(), "c:", coord))
    try:
        assert wait_for(lambda: membership() == ['agents(["c__alice"])'], timeout=2.0)
        held, release = threading.Event(), threading.Event()
        engine.submit(lambda: (held.set(), release.wait(2.0)))
        assert held.wait(2.0)
        coord.expire_session(register("c__bob"))
        register("c__carol")
        release.set()
        assert wait_for(lambda: membership() == ['agents(["c__alice","c__carol"])'], timeout=2.0)
        engine.call(lambda: None, wait=True)  # a turn after the route's
        assert membership() == ['agents(["c__alice","c__carol"])']
        assert engine.log.events(event="error") == []
        assert engine.controller("c:membership")._aggregates == []  # no bucket to leave open
    finally:
        engine.stop()


def test_membership_reaches_the_agents_empty_once_the_last_member_leaves():
    coord = CoordService()
    coord.create(None, "/agents")
    container = AgentContainer("c")
    alice = container.add_agent("alice")
    engine = RouteEngine(log=container.log)
    engine.add_component("agent", AgentComponent(container))
    engine.add_component("coord", CoordComponent(coord))
    session = coord.create_session()
    coord.create(session, "/agents/agent", "c__alice", "EPHEMERAL_SEQUENTIAL")

    def membership():
        return [render_term(t) for t in alice.persistent_snapshot()]

    engine.add_routes(route_sets.membership_routes(RouteBuilder(), "c:", coord))
    try:
        assert wait_for(lambda: membership() == ['agents(["c__alice"])'], timeout=2.0)
        coord.expire_session(session)
        assert wait_for(lambda: membership() == ["agents([])"], timeout=2.0)
        assert engine.log.events(event="error") == []
    finally:
        engine.stop()


def test_two_container_scenario_runs_one_thread_per_container():
    config = ScenarioConfig(
        containers=[
            ContainerSpec("c1", "static", [AgentSpec("ann"), AgentSpec("amy")]),
            ContainerSpec("c2", "static", [AgentSpec("bob")]),
        ],
        users=[{"email": "a@x", "interests": "budget"}],
        route_sets={"use_case", "inter_container"},
    )
    before = set(threading.enumerate())
    scenario = Scenario(config)
    scenario.start()
    try:
        assert {t.name for t in set(threading.enumerate()) - before} == {"c1-loop", "c2-loop"}
        assert all(view is not None for view in scenario.allocations().values())
    finally:
        scenario.stop()
    assert [t.name for t in threading.enumerate() if t not in before] == []


def test_scenario_allocations_agree(fast_scenario):
    fast_scenario.start()
    views = fast_scenario.allocations()
    assert len(views) == 2
    first, *rest = views.values()
    assert first is not None
    assert all(v == first for v in rest)


def test_registration_dedup_single_node_per_agent(fast_scenario):
    fast_scenario.start()
    children = fast_scenario.coord.get_children("/agents")
    assert len(children) == 2  # one node per agent despite any retries


def test_account_change_updates_allocations(fast_scenario):
    fast_scenario.start()
    fast_scenario.add_user("d@x", "budget")
    assert wait_for(
        lambda: all(
            view is not None and sorted(sum(view.values(), [])) == ["a@x", "b@x", "c@x", "d@x"]
            for view in fast_scenario.allocations().values()
        ),
        timeout=6.0,
    )


def test_account_changes_are_applied_without_fetching_the_list(fast_scenario):
    # The percepts carry the change, so no agent queries the table again.
    fast_scenario.start()
    fetches = len(fast_scenario.log.events(event="receive", route_id="main:account-query"))
    fast_scenario.add_user("d@x", "budget")
    fast_scenario.remove_user("b@x")
    assert wait_for(
        lambda: all(
            view is not None and sorted(sum(view.values(), [])) == ["a@x", "c@x", "d@x"]
            for view in fast_scenario.allocations().values()
        ),
        timeout=6.0,
    )
    assert len(fast_scenario.log.events(event="receive", route_id="main:account-query")) == fetches


def test_account_removed_then_added_in_one_cycle_stays():
    container = AgentContainer("c1")
    agent = container.add_agent("a", relevance_behaviors(None))
    agent.started = True  # skip the start-up actions: no routes serve them here
    agent.memory["accounts"] = ["x@x", "y@x"]
    container.deliver_percept("all", parse_term('account_removed("x@x")'))
    container.deliver_percept("all", parse_term('account_added("x@x")'))
    container.run_cycle(agent)
    assert agent.memory["accounts"] == ["x@x", "y@x"]


# --- relevance view ---------------------------------------------------------------


def reference_relevant(users, agents, accounts, name, subject, body):
    """The per-mail scan the view replaced: the whole table and the allocation
    are read again for every request."""
    haystack = f"{subject} {body}".lower()
    interests = {row["email"]: row.get("interests", "") for row in users}
    assigned = compute_allocation(agents, accounts)[name] if name in agents else []
    matched = []
    for email in assigned:
        keywords = [k.strip().lower() for k in interests.get(email, "").split(",") if k.strip()]
        if any(keyword in haystack for keyword in keywords):
            matched.append(email)
    return sorted(matched)


def relevance_agents(users, names):
    tables = TableStore()
    tables.add_table("users", ("email", "interests"), users)
    container = AgentContainer("c")
    for name in names:
        container.add_agent(name, relevance_behaviors(tables))
    return container


def ask(agent, subject, body, msg_id="m1"):
    """The reply of the agent's relevance rule to one request."""
    (rule,) = [r for r in agent.behaviors if r.name == "relevance"]
    request = Compound("check_relevance", (Str(msg_id), Str("x@corp"), Str(subject), Str(body)))
    (reply,) = rule.hook(agent, AgentMessage("achieve", "router", agent.full_name, request, msg_id))
    return reply.content


def relevant(msg_id, emails):
    return Compound("relevant", (Str(msg_id), ListTerm(tuple(Str(e) for e in emails))))


# Few letters, so keywords often hold one another and mails often hold them.
words = st.text(alphabet="abAB ", max_size=4)


@given(
    interests=st.lists(st.lists(words, max_size=4).map(",".join), max_size=8),
    extra_accounts=st.integers(0, 2),
    agent_count=st.integers(1, 4),
    members=st.sets(st.integers(0, 3)),
    mails=st.lists(st.tuples(words, words), min_size=1, max_size=4),
)
@example(
    interests=["Budget , bud,budget", "", " get", "b"],
    extra_accounts=1,
    agent_count=3,
    members={0, 1},
    mails=[("BUDGET plan", "get"), ("travel", "")],
)
def test_relevance_view_replies_as_the_per_mail_scan(
    interests, extra_accounts, agent_count, members, mails
):
    users = [{"email": f"u{i}@x", "interests": text} for i, text in enumerate(interests)]
    # Accounts the table has no row for, and a row the list does not hold yet.
    accounts = sorted(
        {u["email"] for u in users[: len(users) - 1]} | {f"v{i}@x" for i in range(extra_accounts)}
    )
    names = [f"a{i}" for i in range(agent_count)]
    container = relevance_agents(users, names)
    # Agents left out of the membership are unassigned.
    assigned = [f"c__a{i}" for i in sorted(members) if i < agent_count]
    for agent in container.agents.values():
        agent.memory["agents"] = assigned
        agent.memory["accounts"] = accounts
    for subject, body in mails:
        for agent in container.agents.values():
            expected = reference_relevant(users, assigned, accounts, agent.full_name, subject, body)
            assert ask(agent, subject, body) == relevant("m1", expected)


def view_of(agent):
    """The agent's relevance view as last built: keyword -> reply terms, the
    keyword lengths, and the longest text that takes the window lookup."""
    return agent.memory["relevance_view"][2]


# Few letters, so keywords often hold one another and overlap in mails; "İ"
# lowers to two characters, "i" and a combining dot.
WINDOW_ALPHABET = 'aAbi İ"\\.!'


def window_mails(min_size, max_size):
    text = st.text(alphabet=WINDOW_ALPHABET, min_size=min_size, max_size=max_size)
    return st.lists(st.tuples(text, text), min_size=1, max_size=4)


@given(
    interests=st.lists(
        st.lists(st.text(alphabet=WINDOW_ALPHABET, max_size=5), max_size=3).map(",".join),
        min_size=1,
        max_size=6,
    ),
    # A wide view with short mails, which take the windows; a small view
    # with long mails, which take the scan.
    case=st.one_of(
        st.tuples(st.just(True), window_mails(0, 6)),
        st.tuples(st.just(False), window_mails(12, 24)),
    ),
)
@example(
    interests=["aba,bab", "ab", "i", "İ,b!", '"a\\'],
    case=(True, [("ababa", "İ"), ('b!"a\\', "")]),
)
def test_relevance_windows_reply_as_the_keyword_scan(interests, case):
    wide, mails = case
    users = [{"email": f"u{i}@x", "interests": text} for i, text in enumerate(interests)]
    if wide:
        # Keywords no mail holds, each of one user.
        users += [{"email": f"p{i:03d}@x", "interests": f"#{i:03d}"} for i in range(600)]
    container = relevance_agents(users, ["a"])
    (agent,) = container.agents.values()
    accounts = sorted(u["email"] for u in users)
    agent.memory["agents"] = ["c__a"]
    agent.memory["accounts"] = accounts
    for subject, body in mails:
        expected = reference_relevant(users, ["c__a"], accounts, "c__a", subject, body)
        assert ask(agent, subject, body) == relevant("m1", expected)
        _view, _lengths, cutoff = view_of(agent)
        assert (len(f"{subject} {body}".lower()) <= cutoff) == wide


def test_relevance_view_rebuilds_lengths_cutoff_and_replies_with_a_change():
    # Users of six-letter keywords no mail holds: a wide view, so the short
    # mails below take the window lookup.
    users = [{"email": f"p{i:03d}@x", "interests": f"pad{i:03d}"} for i in range(400)]
    users += [
        {"email": "u0@x", "interests": "shared,vanishing"},
        {"email": "u1@x", "interests": "xy,shared"},
        {"email": "u2@x", "interests": "rare"},
        {"email": "u3@x", "interests": "shared"},
    ]
    container = relevance_agents(users, ["a", "b"])
    a = container.agents["c__a"]
    a.started = True  # skip the start-up actions: no routes serve them here
    a.memory["accounts"] = sorted(u["email"] for u in users if u["email"] != "u2@x")
    a.memory["agents"] = ["c__a", "c__b"]
    # Given every other account, c__a holds u0@x and u3@x, not u1@x.
    assert ask(a, "shared", "") == relevant("m1", ["u0@x", "u3@x"])
    assert ask(a, "xy", "") == relevant("m1", [])
    view, lengths, cutoff = view_of(a)
    assert sorted(lengths) == [6, 9] and len("xy ") <= cutoff
    # The membership shrinks to c__a: u1@x comes in, with "xy", a keyword of
    # a length the view did not hold.
    container.deliver_percept(
        "c__a", parse_term('agents(["c__a"])'), Persistence.PERSISTENT, UpdateMode.REPLACE_SAME_FUNCTOR_ARITY
    )
    container.run_cycle(a)
    assert ask(a, "xy", "") == relevant("m1", ["u1@x"])
    assert ask(a, "shared", "") == relevant("m1", ["u0@x", "u1@x", "u3@x"])
    # A new account brings a keyword of another new length.
    assert ask(a, "rare", "") == relevant("m1", [])
    container.deliver_percept("c__a", parse_term('account_added("u2@x")'))
    container.run_cycle(a)
    assert ask(a, "rare", "") == relevant("m1", ["u2@x"])
    # A removed account's keywords name it no more.
    container.deliver_percept("c__a", parse_term('account_removed("u0@x")'))
    container.run_cycle(a)
    assert ask(a, "vanishing", "") == relevant("m1", [])
    assert ask(a, "shared", "") == relevant("m1", ["u1@x", "u3@x"])
    view, lengths, cutoff = view_of(a)
    assert sorted(lengths) == [2, 4, 6] and "vanishing" not in view
    assert len("vanishing ") <= cutoff


def test_relevance_view_follows_a_new_membership_percept():
    users = [{"email": f"u{i}@x", "interests": "budget"} for i in range(4)]
    container = relevance_agents(users, ["a", "b"])
    a = container.agents["c__a"]
    a.started = True  # skip the start-up actions: no routes serve them here
    a.memory["accounts"] = [u["email"] for u in users]
    a.memory["agents"] = ["c__a"]
    assert ask(a, "budget", "") == relevant("m1", ["u0@x", "u1@x", "u2@x", "u3@x"])
    container.deliver_percept(
        "c__a",
        parse_term('agents(["c__a","c__b"])'),
        Persistence.PERSISTENT,
        UpdateMode.REPLACE_SAME_FUNCTOR_ARITY,
    )
    container.run_cycle(a)
    assert ask(a, "budget", "") == relevant("m1", ["u0@x", "u2@x"])


def test_relevance_view_drops_a_removed_account_and_names_each_user_once():
    users = [
        {"email": "u0@x", "interests": "budget,travel"},
        {"email": "u1@x", "interests": "budget"},
    ]
    container = relevance_agents(users, ["a"])
    a = container.agents["c__a"]
    a.started = True  # skip the start-up actions: no routes serve them here
    a.memory["accounts"] = ["u0@x", "u1@x"]
    a.memory["agents"] = ["c__a"]
    # u0@x holds both keywords of the mail and is named once.
    assert ask(a, "budget travel", "") == relevant("m1", ["u0@x", "u1@x"])
    container.deliver_percept("c__a", parse_term('account_removed("u1@x")'))
    container.run_cycle(a)
    assert ask(a, "budget travel", "") == relevant("m1", ["u0@x"])


def test_request_after_a_membership_percept_in_one_cycle_uses_the_new_membership():
    users = [{"email": f"u{i}@x", "interests": "budget"} for i in range(4)]
    container = relevance_agents(users, ["a", "b"])
    a = container.agents["c__a"]
    a.started = True  # skip the start-up actions: no routes serve them here
    a.memory["accounts"] = [u["email"] for u in users]
    a.memory["agents"] = ["c__a", "c__b"]
    container.deliver_percept(
        "c__a",
        parse_term('agents(["c__a"])'),
        Persistence.PERSISTENT,
        UpdateMode.REPLACE_SAME_FUNCTOR_ARITY,
    )
    request = Compound("check_relevance", (Str("1"), Str("x@corp"), Str("budget"), Str("")))
    container.route_local_message(AgentMessage("achieve", "router", "c__a", request, "m1"))
    (reply,) = [e for e in container.run_cycle(a) if isinstance(e, SendMessage)]
    assert reply.content == relevant("1", ["u0@x", "u1@x", "u2@x", "u3@x"])


def forwarded_to(scenario, subject):
    return [
        detail.split(" subject=", 1)[0]
        for _, detail in scenario.forward_events()
        if detail.endswith(" subject=" + subject)
    ]


def test_added_user_gets_the_next_matching_mail(fast_scenario):
    fast_scenario.start()
    assert wait_for(fast_scenario.forward_events, timeout=6.0)  # the start-up mail built the views
    fast_scenario.add_user("d@x", "zebra")
    assert wait_for(
        lambda: all("d@x" in sum(v.values(), []) for v in fast_scenario.allocations().values()),
        timeout=6.0,
    )
    fast_scenario.inject_mail("x@corp", "zebra sighting", "see the notes")
    assert wait_for(lambda: forwarded_to(fast_scenario, "zebra sighting"), timeout=6.0)
    assert forwarded_to(fast_scenario, "zebra sighting") == ["to=[d@x]"]


def test_removed_user_misses_the_next_matching_mail(fast_scenario):
    fast_scenario.start()
    assert wait_for(fast_scenario.forward_events, timeout=6.0)
    fast_scenario.remove_user("a@x")
    assert wait_for(
        lambda: all("a@x" not in sum(v.values(), []) for v in fast_scenario.allocations().values()),
        timeout=6.0,
    )
    fast_scenario.inject_mail("x@corp", "budget travel", "see the notes")
    assert wait_for(lambda: forwarded_to(fast_scenario, "budget travel"), timeout=6.0)
    assert forwarded_to(fast_scenario, "budget travel") == ["to=[b@x]"]


def test_zero_agent_scenario_clean(fast_scenario_config=None):
    config = ScenarioConfig.default()
    config.containers[0].agents = []
    config.aggregate_timeout_ms = 300
    scenario = Scenario(config)
    try:
        scenario.start()
        reason = scenario.wait_quiescent(duration_ms=2500)
        assert scenario.forward_events() == []
        assert reason in ("quiescent", "duration")
    finally:
        scenario.stop()


def test_wait_quiescent_sleeps_until_the_wait_can_end(monkeypatch):
    # Each sleep lasts until the quiet window's end or the duration cap,
    # whichever is earlier, instead of re-checking every few milliseconds.
    config = ScenarioConfig.default()
    config.aggregate_timeout_ms = 300
    scenario = Scenario(config)
    sleeps = []
    real_sleep = time.sleep

    def counting_sleep(seconds):
        sleeps.append(seconds)
        real_sleep(seconds)

    scenario.start()
    try:
        monkeypatch.setattr(runner.time, "sleep", counting_sleep)
        assert scenario.wait_quiescent(duration_ms=100) == "duration"
        assert len(sleeps) == 1
        sleeps.clear()
        assert scenario.wait_quiescent() == "quiescent"
        assert len(sleeps) <= 3
    finally:
        monkeypatch.undo()
        scenario.stop()
    assert len(scenario.forward_events()) == 1


def test_an_event_during_wait_quiescent_moves_the_quiet_window_end():
    config = ScenarioConfig.default()
    config.aggregate_timeout_ms = 100
    scenario = Scenario(config)  # not started: only this test emits
    window = 3 * config.aggregate_timeout_ms / 1000.0
    emitter = threading.Timer(window / 2, scenario.log.emit, ("probe", "send"))
    emitter.start()
    try:
        assert scenario.wait_quiescent(duration_ms=5_000) == "quiescent"
        ended = time.time()
    finally:
        emitter.cancel()
        emitter.join(timeout=5)
    (record,) = scenario.log.records()
    assert record.ts < ended
    assert ended >= record.ts + window


def test_bridge_scenario_delivers_across_containers():
    from routebus.agents import AgentMessage

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
        c1 = scenario.containers["c1"]
        c2 = scenario.containers["c2"]
        msg = AgentMessage("tell", "c1__ann", "c2__bob", parse_term('greet("hello")'), "m1")
        c1.route_local_message(msg)
        bob = c2.agents["c2__bob"]
        assert wait_for(lambda: len(bob.inbox) > 0, timeout=3)
        got = bob.inbox.popleft()
        assert got.illoc_force == "tell"
        assert got.sender == "c1__ann"
        assert render_term(got.content) == 'greet("hello")'
    finally:
        scenario.stop()


def test_run_scenario_returns_one_on_init_failure(capsys):
    from routebus.demo.runner import run_scenario

    config = ScenarioConfig.default()
    config.designated_poller = "no-such-container"
    assert run_scenario(config) == 1
    assert "failed to start" in capsys.readouterr().err


# --- CLI -----------------------------------------------------------------------


def test_cli_run_with_config_writes_log(tmp_path, capsys):
    cfg = write_config(tmp_path)
    log_path = tmp_path / "events.log"
    rc = cli.main(
        ["run", "--config", str(cfg), "--duration-ms", "2500", "--log", str(log_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "forward" in out or "mail forward" in out
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert any(" forward " in line for line in lines)
    # line format: ts route_id event exchange_id detail
    ts, route_id, event, exchange_id = lines[0].split(" ", 4)[:4]
    float(ts)
    assert event in ("lifecycle", "receive", "send", "forward", "drop", "error", "warning")


def test_cli_inject_mail_appends_record(tmp_path):
    cfg = write_config(tmp_path)
    rc = cli.main(
        [
            "inject-mail",
            "--config",
            str(cfg),
            "--to",
            "to.share",
            "--subject",
            "S",
            "--body",
            "B",
            "--from",
            "me@corp",
        ]
    )
    assert rc == 0
    records = load_records(tmp_path / "mail.txt")
    assert records[-1] == {"to": "to.share", "from": "me@corp", "subject": "S", "body": "B"}


def test_cli_dump_allocations_offline(capsys):
    rc = cli.main(["dump-allocations"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["main__alice: a@x,c@x", "main__bob: b@x"]


def test_cli_dump_log_prints_file(tmp_path, capsys):
    path = tmp_path / "events.log"
    path.write_text("1.0 r lifecycle - started\n", encoding="utf-8")
    assert cli.main(["dump-log", "--log", str(path)]) == 0
    assert "lifecycle" in capsys.readouterr().out


def test_cli_missing_config_file_is_an_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err
