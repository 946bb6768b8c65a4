from pathlib import Path

import pytest

from routebus.agents import AgentContainer, AgentId, AgentMessage, Async, Sync, UpdateMode
from routebus.agent_endpoints import (
    _ALLOWED_PARAMS,
    AgentComponent,
    AgentEndpointConfig,
    EndpointConfigError,
    EndpointKind,
    InvalidRegexError,
    MissingIllocForceError,
    MissingResultHeaderError,
    UnparseableContentError,
    complete_sync_action,
    consume_agent_action,
    consume_agent_message,
    produce_agent_message,
    produce_percept,
)
from routebus.messages import ExchangePattern, new_exchange, parse_uri
from routebus.routing import RouteBuilder, RouteEngine
from routebus.terms import ActionTerm, Atom, parse_term, render_term


def cfg_for(uri_text, role):
    return AgentEndpointConfig.from_uri(parse_uri(uri_text), role)


def msg(content, illoc="tell", sender="c1__a", receiver="router", annotations=(), msg_id="m1"):
    return AgentMessage(illoc, sender, receiver, parse_term(content), msg_id, tuple(annotations))


# --- config parsing -----------------------------------------------------------


def test_kind_resolution_from_uri_and_role():
    assert cfg_for("agent:message", "consumer").kind is EndpointKind.MESSAGE_CONSUMER
    assert cfg_for("agent:action", "consumer").kind is EndpointKind.ACTION_CONSUMER
    assert cfg_for("agent:message", "producer").kind is EndpointKind.MESSAGE_PRODUCER
    assert cfg_for("agent:percept", "producer").kind is EndpointKind.PERCEPT_PRODUCER
    with pytest.raises(EndpointConfigError):
        cfg_for("agent:percept", "consumer")
    with pytest.raises(EndpointConfigError):
        cfg_for("agent:action", "producer")


def test_replace_requires_match():
    with pytest.raises(EndpointConfigError):
        cfg_for("agent:message?replace=$1", "consumer")


def test_result_header_map_only_on_action_consumer():
    with pytest.raises(EndpointConfigError):
        cfg_for("agent:message?resultHeaderMap=result:1", "consumer")


def test_persistence_params_only_on_percept_producer():
    with pytest.raises(EndpointConfigError):
        cfg_for("agent:message?persistent=true", "producer")


def test_invalid_regex_rejected_at_construction():
    with pytest.raises(InvalidRegexError):
        cfg_for("agent:message?match=((", "consumer")


def test_unknown_parameter_rejected():
    with pytest.raises(EndpointConfigError):
        cfg_for("agent:message?bogus=1", "consumer")


def test_result_header_map_parses_pairs():
    cfg = cfg_for("agent:action?resultHeaderMap=result:1,other:2", "consumer")
    assert cfg.result_header_map == (("result", 1), ("other", 2))
    with pytest.raises(EndpointConfigError):
        cfg_for("agent:action?resultHeaderMap=result:0", "consumer")


def test_annotations_param_splits_outside_brackets():
    cfg = cfg_for("agent:message?annotations=src(a,b),urgent", "consumer")
    assert [render_term(t) for t in cfg.annotations] == ["src(a,b)", "urgent"]


def test_annotations_param_keeps_escaped_quotes_inside_strings():
    cfg = cfg_for(r'agent:message?annotations=note("x\"),y"),urgent', "consumer")
    assert cfg.annotations == (parse_term(r'note("x\"),y")'), Atom("urgent"))
    assert cfg.annotations[0].args[0].text == 'x"),y'


# --- message consumer -----------------------------------------------------------


def test_listing_style_match_replace_consumer():
    cfg = cfg_for(
        r"agent:message?illoc_force=tell&receiver=router"
        r"&match=relevant\((.*),(.*)\)&replace=$1:$2",
        "consumer",
    )
    x = consume_agent_message(cfg, msg('relevant(42,["u1@x"])'))
    assert x is not None
    assert x.in_msg.body == '42:["u1@x"]'
    assert x.in_msg.headers["illoc_force"] == "tell"
    assert x.in_msg.headers["sender"] == "c1__a"
    assert x.in_msg.headers["receiver"] == "router"
    assert x.in_msg.headers["msg_id"] == "m1"


def test_receiver_all_selects_only_broadcasts():
    cfg = cfg_for("agent:message?receiver=all", "consumer")
    assert consume_agent_message(cfg, msg("hi", receiver="c1__b")) is None
    assert consume_agent_message(cfg, msg("hi", receiver="all")) is not None


def test_no_selectors_accepts_everything():
    cfg = cfg_for("agent:message", "consumer")
    assert consume_agent_message(cfg, msg("anything(1)")) is not None


def test_selector_rejections():
    base = msg("p(1)", illoc="tell", sender="s", receiver="r")
    assert consume_agent_message(cfg_for("agent:message?illoc_force=achieve", "consumer"), base) is None
    assert consume_agent_message(cfg_for("agent:message?sender=other", "consumer"), base) is None
    assert consume_agent_message(cfg_for("agent:message?receiver=other", "consumer"), base) is None
    assert consume_agent_message(cfg_for(r"agent:message?match=q\(.*\)", "consumer"), base) is None


def test_annotation_selector_requires_all_present():
    cfg = cfg_for("agent:message?annotations=urgent", "consumer")
    assert consume_agent_message(cfg, msg("p")) is None
    tagged = msg("p", annotations=(parse_term("urgent"), parse_term("src(a)")))
    assert consume_agent_message(cfg, tagged) is not None


def test_match_without_replace_keeps_rendered_content():
    cfg = cfg_for(r"agent:message?match=p\(.*\)", "consumer")
    x = consume_agent_message(cfg, msg("p( 1 )".replace(" ", "")))
    assert x.in_msg.body == "p(1)"


# --- action consumer --------------------------------------------------------------


def actor():
    return AgentId("c1", "a")


def test_action_consumer_in_out_with_result_map():
    cfg = cfg_for(
        "agent:action?exchangePattern=InOut&actionName=get_email_accounts"
        "&resultHeaderMap=result:1",
        "consumer",
    )
    term = ActionTerm(parse_term("get_email_accounts(Accounts)"))
    x = consume_agent_action(cfg, actor(), term, Sync())
    assert x is not None
    assert x.pattern is ExchangePattern.IN_OUT
    assert x.in_msg.body == term.literal
    assert x.in_msg.headers["actionName"] == "get_email_accounts"
    assert x.in_msg.headers["params"] == ("Accounts",)


def test_action_consumer_register_headers():
    cfg = cfg_for("agent:action?actionName=register", "consumer")
    x = consume_agent_action(cfg, actor(), ActionTerm(Atom("register")), Async())
    assert x is not None
    assert x.in_msg.headers["actor"] == "c1__a"
    assert x.in_msg.headers["actionName"] == "register"
    assert x.in_msg.body == Atom("register")
    assert x.pattern is ExchangePattern.IN_ONLY


def test_action_consumer_rejects_other_action():
    cfg = cfg_for("agent:action?actionName=register", "consumer")
    assert consume_agent_action(cfg, actor(), ActionTerm(Atom("other_action")), Async()) is None


def test_action_consumer_actor_selector():
    cfg = cfg_for("agent:action?actor=c1__b", "consumer")
    assert consume_agent_action(cfg, actor(), ActionTerm(Atom("go")), Async()) is None


def test_sync_dispatch_needs_result_header_map():
    cfg = cfg_for("agent:action?actionName=q", "consumer")
    with pytest.raises(EndpointConfigError):
        consume_agent_action(cfg, actor(), ActionTerm(parse_term("q(X)")), Sync())


def test_complete_sync_action_binds_mapped_headers():
    cfg = cfg_for("agent:action?resultHeaderMap=result:1", "consumer")
    term = ActionTerm(parse_term("get_email_accounts(Accounts)"))
    reply = new_exchange(ExchangePattern.IN_OUT, None, {"result": '["a@x"]'})
    bound = complete_sync_action(cfg, reply, term)
    assert render_term(bound.literal) == 'get_email_accounts(["a@x"])'


def test_complete_sync_action_two_pairs_bind_independently():
    cfg = cfg_for("agent:action?resultHeaderMap=h1:1,h2:2", "consumer")
    term = ActionTerm(parse_term("q(X,Y)"))
    reply = new_exchange(ExchangePattern.IN_OUT, None, {"h1": "ok", "h2": 7})
    bound = complete_sync_action(cfg, reply, term)
    assert render_term(bound.literal) == "q(ok,7)"


def test_complete_sync_action_binds_term_and_sequence_headers_as_they_are():
    cfg = cfg_for("agent:action?resultHeaderMap=h1:1,h2:2", "consumer")
    term = ActionTerm(parse_term("q(X,Y)"))
    reply = new_exchange(ExchangePattern.IN_OUT, None, {"h1": parse_term("f(a)"), "h2": ("a@x",)})
    bound = complete_sync_action(cfg, reply, term)
    assert render_term(bound.literal) == 'q(f(a),["a@x"])'


def test_complete_sync_action_missing_header():
    cfg = cfg_for("agent:action?resultHeaderMap=result:1", "consumer")
    term = ActionTerm(parse_term("q(X)"))
    reply = new_exchange(ExchangePattern.IN_OUT, None, {})
    with pytest.raises(MissingResultHeaderError):
        complete_sync_action(cfg, reply, term)


def test_unparseable_result_header_binds_as_string():
    cfg = cfg_for("agent:action?resultHeaderMap=result:1", "consumer")
    term = ActionTerm(parse_term("q(X)"))
    reply = new_exchange(ExchangePattern.IN_OUT, None, {"result": "not a term ("})
    bound = complete_sync_action(cfg, reply, term)
    assert render_term(bound.literal) == 'q("not a term (")'


# --- message producer ----------------------------------------------------------------


def test_produce_message_headers_override_params():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    cfg = cfg_for("agent:message?illoc_force=achieve&sender=cfgsender", "producer")
    x = new_exchange(
        ExchangePattern.IN_ONLY,
        "ping(1)",
        {"illoc_force": "tell", "receiver": "c1__alice", "sender": "router"},
    )
    produce_agent_message(container, cfg, x)
    got = alice.inbox.popleft()
    assert got.illoc_force == "tell"  # header wins over achieve
    assert got.sender == "router"
    assert got.receiver == "c1__alice"
    assert render_term(got.content) == "ping(1)"


def test_produce_message_defaults_to_broadcast():
    container = AgentContainer("c1")
    agents = [container.add_agent(n) for n in ("a", "b")]
    cfg = cfg_for("agent:message?illoc_force=tell", "producer")
    produce_agent_message(container, cfg, new_exchange(body="hello"))
    assert all(len(a.inbox) == 1 for a in agents)


def test_produce_message_comma_separated_recipients():
    container = AgentContainer("c1")
    a = container.add_agent("a")
    b = container.add_agent("b")
    container.add_agent("c")
    cfg = cfg_for("agent:message?illoc_force=tell", "producer")
    produce_agent_message(
        container, cfg, new_exchange(body="hello", headers={"receiver": "c1__a,c1__b"})
    )
    assert len(a.inbox) == 1 and len(b.inbox) == 1
    assert len(container.agents["c1__c"].inbox) == 0


def test_produce_message_missing_illoc_force():
    container = AgentContainer("c1")
    cfg = cfg_for("agent:message", "producer")
    with pytest.raises(MissingIllocForceError):
        produce_agent_message(container, cfg, new_exchange(body="x"))


def test_produce_message_unparseable_content():
    container = AgentContainer("c1")
    cfg = cfg_for("agent:message?illoc_force=tell", "producer")
    with pytest.raises(UnparseableContentError):
        produce_agent_message(container, cfg, new_exchange(body="((("))
    with pytest.raises(UnparseableContentError):
        produce_agent_message(container, cfg, new_exchange(body="[1,2]"))  # not a literal
    with pytest.raises(UnparseableContentError):
        produce_agent_message(container, cfg, new_exchange(body=parse_term("[1,2]")))


# --- percept producer -----------------------------------------------------------------


def test_produce_percept_persistent_replacing():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    cfg = cfg_for("agent:percept?persistent=true&updateMode=-+", "producer")
    produce_percept(container, cfg, new_exchange(body='agents(["c1__a"])'))
    produce_percept(container, cfg, new_exchange(body='agents(["c1__a","c1__b"])'))
    snapshot = alice.persistent_snapshot()
    assert [render_term(t) for t in snapshot] == ['agents(["c1__a","c1__b"])']


def test_produce_percept_default_is_transient_accumulate():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    cfg = cfg_for("agent:percept", "producer")
    produce_percept(container, cfg, new_exchange(body="p(1)"))
    produce_percept(container, cfg, new_exchange(body="p(2)"))
    transients, _, _ = alice.drain_for_cycle()
    assert [render_term(e.literal) for e in transients] == ["p(1)", "p(2)"]
    assert alice.persistent_snapshot() == []


def test_percept_header_update_mode_applies_to_transients():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    cfg = cfg_for("agent:percept", "producer")
    produce_percept(container, cfg, new_exchange(body="state(1)"))
    produce_percept(
        container, cfg, new_exchange(body="state(2)", headers={"updateMode": "-+"})
    )
    transients, _, _ = alice.drain_for_cycle()
    assert [render_term(e.literal) for e in transients] == ["state(2)"]


def test_percept_annotations_appended():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    cfg = cfg_for("agent:percept?annotations=src(route)", "producer")
    produce_percept(container, cfg, new_exchange(body="p(1)"))
    transients, _, _ = alice.drain_for_cycle()
    assert render_term(transients[0].literal) == "p(1)[src(route)]"


def test_percept_header_over_param_precedence():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    bob = container.add_agent("bob")
    cfg = cfg_for("agent:percept?receiver=c1__alice&persistent=true", "producer")
    x = new_exchange(body="p(1)", headers={"receiver": "c1__bob", "persistent": "false"})
    produce_percept(container, cfg, x)
    assert bob.drain_for_cycle()[0]  # transient, to bob
    assert alice.persistent_snapshot() == []


def test_header_parameters_are_parsed_once_from_the_uri():
    cfg = cfg_for("agent:percept?receiver=c1__a, c1__b&persistent=Yes&updateMode=-%2B", "producer")
    assert cfg.receiver == ("c1__a", "c1__b")
    assert cfg.persistent is True
    assert cfg.update_mode is UpdateMode.REPLACE_SAME_FUNCTOR_ARITY
    default = cfg_for("agent:percept", "producer")
    assert (default.persistent, default.update_mode) == (False, UpdateMode.ACCUMULATE)
    assert cfg_for("agent:percept?updateMode=accumulate", "producer").update_mode is UpdateMode.ACCUMULATE


def test_persistent_header_follows_the_uri_boolean_rule():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    cfg = cfg_for("agent:percept", "producer")
    for i, text in enumerate(("YES", "1", "True", "on")):
        produce_percept(container, cfg, new_exchange(body=f"p({i})", headers={"persistent": text}))
        assert parse_uri(f"x:y?b={text}").get_bool("b") is (text != "on")
    assert [render_term(t) for t in alice.persistent_snapshot()] == ["p(0)", "p(1)", "p(2)"]
    assert [render_term(e.literal) for e in alice.transient] == ["p(3)"]


def test_update_mode_naming_no_mode_is_rejected_on_the_uri_and_in_a_header():
    container = AgentContainer("c1")
    alice = container.add_agent("alice")
    engine = RouteEngine()
    engine.add_component("agent", AgentComponent(container))
    rb = RouteBuilder()
    rb.from_("direct:bad", route_id="bad").to("agent:percept?updateMode=replace")
    rb.from_("direct:ok", route_id="ok").to("agent:percept")
    bad, ok = engine.add_routes(rb, start=False)  # no loop: each call runs here
    with pytest.raises(EndpointConfigError, match="updateMode"):
        bad.start()
    ok.start()
    engine.send("direct:ok", new_exchange(body="state(1)"))
    with pytest.raises(EndpointConfigError, match="updateMode"):
        engine.send("direct:ok", new_exchange(body="state(2)", headers={"updateMode": "replace"}))
    assert [render_term(e.literal) for e in alice.transient] == ["state(1)"]
    assert engine.log.events(event="error", route_id="ok") == []  # ``direct:`` raises to its caller


def test_readme_lists_the_parameters_of_every_agent_endpoint():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Endpoint URIs", 1)[1].split("```")[1]
    listed = {}
    for line in block.splitlines():
        if line.startswith("agent:"):
            uri, _, role = line.partition(" ")
            path, _, query = uri.partition("?")
            kind = cfg_for(path, role.strip(" ()")).kind
            assert kind not in listed, line
            listed[kind] = {param.partition("=")[0] for param in query.split("&")}
    assert listed == _ALLOWED_PARAMS


# --- round trip and properties -----------------------------------------------------------


def test_consume_then_produce_round_trip():
    source = msg(
        'status("ok")',
        illoc="tell",
        sender="c1__a",
        receiver="all",
        annotations=(parse_term("src(a)"),),
    )
    consumer_cfg = cfg_for("agent:message", "consumer")
    x = consume_agent_message(consumer_cfg, source)
    container = AgentContainer("c2")
    bob = container.add_agent("bob")
    producer_cfg = cfg_for("agent:message", "producer")
    produce_agent_message(container, producer_cfg, x)
    got = bob.inbox.popleft()
    assert got.illoc_force == source.illoc_force
    assert got.sender == source.sender
    assert got.receiver == source.receiver
    assert got.annotations == source.annotations
    assert got.content is source.content  # a term body is delivered as it is


def test_adding_selectors_never_widens_acceptance():
    messages = [
        msg("p(1)"),
        msg("p(1)", illoc="achieve"),
        msg("q(2)", sender="other"),
        msg("p(1)", receiver="all"),
    ]
    loose = cfg_for("agent:message", "consumer")
    tighter = [
        cfg_for("agent:message?illoc_force=tell", "consumer"),
        cfg_for("agent:message?illoc_force=tell&sender=c1__a", "consumer"),
        cfg_for(r"agent:message?illoc_force=tell&sender=c1__a&match=p\(.*\)", "consumer"),
    ]
    accepted_loose = {i for i, m in enumerate(messages) if consume_agent_message(loose, m)}
    previous = accepted_loose
    for cfg in tighter:
        accepted = {i for i, m in enumerate(messages) if consume_agent_message(cfg, m)}
        assert accepted <= previous
        previous = accepted


@pytest.mark.parametrize(
    "match, replace, content, body",
    [
        pytest.param(
            r"t\((.*),(.*),(.*)\)", "$3-$2-$1|$$", "t(a,b,c)", "c-b-a|$", id="three-groups"
        ),
        pytest.param(r"t\((a)?(.*)\)", "<$1><$2>", "t(b)", "<><b>", id="group-not-taking-part"),
        pytest.param(r"t\((.*)\)", "$1$", "t(a)", "a$", id="trailing-dollar"),
        pytest.param(r"t\((.*)\)", "$x$1", "t(a)", "$xa", id="dollar-non-digit"),
        pytest.param(
            r"t\(" + ",".join(["(.)"] * 10) + r"\)",
            "$10-$1",
            "t(a,b,c,d,e,f,g,h,i,j)",
            "j-a",
            id="two-digit-group",
        ),
        pytest.param(r"t\((.*)\)", "$$1", "t(a)", "$1", id="escaped-dollar-then-digit"),
        pytest.param(r"t\((.*)\)", "$0", "t(a)", "t(a)", id="group-zero-whole-match"),
    ],
)
def test_replace_substitutes_every_group(match, replace, content, body):
    cfg = cfg_for(f"agent:message?match={match}&replace={replace}", "consumer")
    assert consume_agent_message(cfg, msg(content)).in_msg.body == body


def test_replace_naming_a_missing_group_rejected_at_construction():
    with pytest.raises(EndpointConfigError):
        cfg_for(r"agent:message?match=p\((.*)\)&replace=$2", "consumer")
    with pytest.raises(EndpointConfigError):
        cfg_for(r"agent:message?match=p\((.*)\)&replace=$1$10", "consumer")
