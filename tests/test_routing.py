import itertools
import sys
import threading
import time

import pytest
from hypothesis import example, given, strategies as st

from routebus.expressions import body, body_to_term, constant, expr, header, stringify
from routebus.messages import ExchangePattern, RowSet, new_exchange
from routebus.routing import (
    Aggregate,
    ClosedCorrelationKeyError,
    EventLog,
    EventRecord,
    IdempotentRepository,
    InvalidTransitionError,
    ListAppend,
    MissingColumnError,
    RouteBuilder,
    RouteConfigError,
    RouteEngine,
    RouteState,
    SetUnion,
    UnknownSchemeError,
    AggregateState,
    set_union,
    split_exchange,
    transform_rows_to_quoted_list,
)
from routebus.expressions import TypeMismatchError
from routebus.terms import Atom, quote, render_term

from conftest import take


@pytest.fixture
def engine():
    eng = RouteEngine()
    yield eng
    eng.stop()


def drain(channel, timeout=1.0):
    got = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        item = take(channel, 0.05)
        if item is None:
            break
        got.append(item)
    return got


# --- pipeline basics ---------------------------------------------------------


def test_direct_pipeline_set_body(engine):
    rb = RouteBuilder()
    rb.from_("direct:a", route_id="a").set_body(constant("x")).to("buffered:sink")
    engine.add_routes(rb)
    engine.send("direct:a", new_exchange(ExchangePattern.IN_ONLY, "ignored"))
    out = take(engine._buffer("sink"), 1)
    assert out.in_msg.body == "x"


def test_in_out_reply_carries_final_headers(engine):
    rb = RouteBuilder()
    rb.from_("direct:q", route_id="q").set_header("result", constant("v"))
    engine.add_routes(rb)
    x = new_exchange(ExchangePattern.IN_OUT, "req")
    engine.send("direct:q", x)
    assert x.out_msg is not None
    assert x.out_msg.headers["result"] == "v"


def test_multicast_sequential_direct_before_buffered(engine):
    seen = []
    rb = RouteBuilder()
    rb.from_("direct:first", route_id="first").process(lambda x: seen.append("first"))
    rb.from_("direct:fan", route_id="fan").to("direct:first", "direct:second")
    rb.from_("direct:second", route_id="second").process(lambda x: seen.append("second"))
    engine.add_routes(rb)
    engine.send("direct:fan", new_exchange())
    assert seen == ["first", "second"]


def test_multicast_failure_does_not_stop_later_destinations(engine):
    seen = []
    rb = RouteBuilder()
    rb.from_("direct:boom", route_id="boom").process(lambda x: 1 / 0)
    rb.from_("direct:ok", route_id="ok").process(lambda x: seen.append("ok"))
    rb.from_("direct:fan", route_id="fan").to("direct:boom", "direct:ok")
    engine.add_routes(rb)
    fan, replies = engine.controller("fan"), []
    engine.call(lambda: fan.process(new_exchange(), replies.append), wait=True)
    assert seen == ["ok"]
    assert isinstance(replies[0], ZeroDivisionError)
    # The exchange fails once, with the first failing leg's error.
    (error,) = engine.log.events(event="error", route_id="fan")
    assert "ZeroDivisionError" in error.detail


def test_unknown_scheme_rejected_at_start(engine):
    rb = RouteBuilder()
    rb.from_("nosuch:x", route_id="bad")
    with pytest.raises(UnknownSchemeError):
        engine.add_routes(rb)


def test_filter_drops_non_matching(engine):
    rb = RouteBuilder()
    (
        rb.from_("direct:f", route_id="f")
        .filter_equals(header("kind"), "yes")
        .to("buffered:sink")
    )
    engine.add_routes(rb)
    engine.send("direct:f", new_exchange(headers={"kind": "no"}))
    engine.send("direct:f", new_exchange(headers={"kind": "yes"}))
    out = drain(engine._buffer("sink"))
    assert len(out) == 1
    assert out[0].in_msg.headers["kind"] == "yes"


# --- split ---------------------------------------------------------------------


def test_split_children_carry_headers_and_indices():
    x = new_exchange(ExchangePattern.IN_ONLY, ["a", "b", "c"], {"h": "v"})
    children = split_exchange(x, body())
    assert [c.in_msg.body for c in children] == ["a", "b", "c"]
    assert all(c.in_msg.headers["h"] == "v" for c in children)
    assert [c.in_msg.headers["split.index"] for c in children] == [0, 1, 2]
    assert all(c.in_msg.headers["split.size"] == 3 for c in children)


def test_split_children_own_their_headers():
    x = new_exchange(ExchangePattern.IN_ONLY, (("a",), ("b",)), {"tags": ("t",)})
    first, second = split_exchange(x, body())
    first.in_msg.headers["tags"] = ("changed",)
    assert x.in_msg.headers["tags"] == second.in_msg.headers["tags"] == ("t",)
    assert first.in_msg.body is x.in_msg.body[0]


def test_split_empty_list_produces_no_children():
    x = new_exchange(ExchangePattern.IN_ONLY, [])
    assert split_exchange(x, body()) == []


def test_split_non_collection_rejected():
    x = new_exchange(ExchangePattern.IN_ONLY, "text")
    with pytest.raises(TypeMismatchError):
        split_exchange(x, body())


def test_split_rowset_yields_single_row_children():
    rows = RowSet(("email",), [{"email": "a@x"}, {"email": "b@x"}])
    x = new_exchange(ExchangePattern.IN_ONLY, rows)
    children = split_exchange(x, body())
    assert len(children) == 2
    assert children[0].in_msg.body.rows == ({"email": "a@x"},)


# --- aggregation ------------------------------------------------------------------


def test_aggregate_size_list_append():
    step = Aggregate(header("k"), ListAppend(), completion_size=3)
    state = AggregateState(step)
    out = []
    for item in ("a", "b", "c"):
        merged = state.offer(new_exchange(body=item, headers={"k": "x"}))
        if merged:
            out.append(merged)
    assert len(out) == 1
    assert out[0].in_msg.body == ("a", "b", "c")


def test_list_append_merge_holds_the_offered_bodies():
    bodies = [["a"], {"b": 1}, ["c"]]
    state = AggregateState(Aggregate(header("k"), ListAppend(), completion_size=3))
    merged = None
    for b in bodies:
        merged = state.offer(new_exchange(body=b, headers={"k": "x"})) or merged
    assert all(got is offered for got, offered in zip(merged.in_msg.body, bodies, strict=True))


def test_aggregate_size_one_is_pass_through():
    step = Aggregate(header("k"), ListAppend(), completion_size=1)
    state = AggregateState(step)
    merged = state.offer(new_exchange(body="only", headers={"k": "x"}))
    assert merged is not None
    assert merged.in_msg.body == ("only",)


def test_aggregate_dynamic_size_from_header():
    step = Aggregate(header("n"), ListAppend(), completion_size=header("n"))
    state = AggregateState(step)
    assert state.offer(new_exchange(body="a", headers={"n": 2})) is None
    merged = state.offer(new_exchange(body="b", headers={"n": 2}))
    assert merged is not None
    assert merged.in_msg.body == ("a", "b")


def test_aggregate_needs_a_completion_condition():
    with pytest.raises(RouteConfigError):
        Aggregate(header("k"), ListAppend())
    both = Aggregate(header("k"), ListAppend(), completion_size=1, completion_timeout_ms=10)
    assert (both.completion_size, both.completion_timeout_ms) == (1, 10)


def test_size_and_timeout_completes_at_the_size_and_its_deadline_flushes_nothing():
    scheduled = []
    step = Aggregate(header("k"), ListAppend(), completion_size=2, completion_timeout_ms=100)
    state = AggregateState(step, scheduled.append)
    t0 = time.monotonic()
    assert state.offer(new_exchange(body="a", headers={"k": "1"})) is None
    merged = state.offer(new_exchange(body="b", headers={"k": "1"}))
    assert merged.in_msg.body == ("a", "b")
    assert time.monotonic() - t0 < 0.05  # at the count, well before the timeout
    assert len(scheduled) == 1 and not state.buckets
    time.sleep(max(0.0, scheduled[0] - time.monotonic()))
    assert state.flush_expired() == []
    assert len(scheduled) == 1  # nothing left to schedule a flush for
    # A size-completed key is not closed: the next bucket under it opens.
    assert state.offer(new_exchange(body="c", headers={"k": "1"})) is None


def test_exchange_after_its_bucket_timed_out_is_refused_for_one_timeout():
    step = Aggregate(header("k"), ListAppend(), completion_size=2, completion_timeout_ms=50)
    state = AggregateState(step)
    state.offer(new_exchange(body="a", headers={"k": "1"}))
    time.sleep(0.06)
    assert [x.in_msg.body for x in state.flush_expired()] == [("a",)]
    with pytest.raises(ClosedCorrelationKeyError):
        state.offer(new_exchange(body="late", headers={"k": "1"}))
    assert not state.buckets
    time.sleep(0.06)  # one timeout after the close the key is forgotten
    assert state.offer(new_exchange(body="b", headers={"k": "1"})) is None
    assert not state.closed


def test_set_union_merges_reply_lists():
    step = Aggregate(header("id"), SetUnion(), completion_size=2)
    state = AggregateState(step)
    state.offer(new_exchange(body='["u1@x"]', headers={"id": "1"}))
    merged = state.offer(new_exchange(body='["u1@x","u2@x"]', headers={"id": "1"}))
    assert merged is not None
    assert merged.in_msg.body == ("u1@x", "u2@x")


def test_set_union_permutation_invariant():
    import random

    replies = ['["b@x"]', '["a@x","c@x"]', '["c@x"]', '["a@x"]']
    rng = random.Random(7)
    results = set()
    for _ in range(50):
        shuffled = replies[:]
        rng.shuffle(shuffled)
        step = Aggregate(header("id"), SetUnion(), completion_size=len(shuffled))
        state = AggregateState(step)
        merged = None
        for r in shuffled:
            merged = state.offer(new_exchange(body=r, headers={"id": "1"})) or merged
        results.add(tuple(merged.in_msg.body))
    assert results == {("a@x", "b@x", "c@x")}


def test_set_union_orders_by_rendered_text_over_text_and_list_bodies():
    import itertools

    # Rendered, 'a"x' is "a\"x", which sorts after "a@x" though '"' < '@';
    # the backslash and the quote must not change the order by their escapes.
    replies = [
        ["b@x", 'q"uote@x', "a@x"],
        '["back\\\\slash@x","a@x","z@x"]',
        ["a#x", 'a"x'],
        "[]",
        [],
    ]
    expected = ["a#x", "a@x", 'a"x', "b@x", "back\\slash@x", 'q"uote@x', "z@x"]
    for order in itertools.permutations(replies):
        step = Aggregate(header("id"), SetUnion(), completion_size=len(order))
        state = AggregateState(step)
        merged = None
        for r in order:
            merged = state.offer(new_exchange(body=r, headers={"id": "1"})) or merged
        assert list(merged.in_msg.body) == expected
        assert stringify(merged.in_msg.body) == (
            '["a#x","a@x","a\\"x","b@x","back\\\\slash@x","q\\"uote@x","z@x"]'
        )


# Characters below, at and above the closing quote, and the escaped backslash.
union_texts = st.text(alphabet='\x00\t !"#\\aé', max_size=4)


@given(bodies=st.lists(st.lists(union_texts, max_size=4), min_size=1, max_size=4))
# One character each that would reorder the texts if they were sorted by themselves.
@example(bodies=[['a"', "a#"]])
@example(bodies=[["a", "a\t"]])
@example(bodies=[["", "!"], ["é"]])
def test_set_union_sorts_texts_in_their_rendered_order(bodies):
    expected = tuple(sorted({t for b in bodies for t in b}, key=quote))
    for order in itertools.permutations(bodies):
        assert set_union(order) == expected


@given(
    bodies=st.lists(
        st.lists(st.one_of(union_texts, st.integers(-5, 5), st.sampled_from([Atom("a"), Atom("b")]))),
        min_size=1,
        max_size=4,
    )
)
def test_set_union_sorts_mixed_bodies_by_rendered_text(bodies):
    elements = {el for b in bodies for el in b}
    expected = tuple(sorted(elements, key=lambda el: render_term(body_to_term(el))))
    for order in itertools.permutations(bodies):
        assert set_union(order) == expected


def test_aggregate_timeout_flush_in_route(engine):
    rb = RouteBuilder()
    (
        rb.from_("direct:agg", route_id="agg")
        .aggregate(header("id"), SetUnion())
        .completion_timeout(150)
        .to("buffered:out")
    )
    engine.add_routes(rb)
    engine.send("direct:agg", new_exchange(body='["u1@x"]', headers={"id": "1"}))
    engine.send("direct:agg", new_exchange(body='["u2@x"]', headers={"id": "1"}))
    t0 = time.monotonic()
    out = take(engine._buffer("out"), 2)
    waited = time.monotonic() - t0
    assert out.in_msg.body == ("u1@x", "u2@x")
    assert waited >= 0.04  # flushed at the bucket's deadline, not inline


def test_each_timed_out_bucket_is_one_warning_with_its_key_and_size(engine):
    rb = RouteBuilder()
    (
        rb.from_("direct:agg", route_id="agg")
        .aggregate(header("id"), ListAppend())
        .completion_timeout(100, size=3)
        .to("buffered:out")
    )
    engine.add_routes(rb)
    sent = [new_exchange(body=str(n), headers={"id": key}) for n, key in enumerate("aabccc")]
    for x in sent:
        engine.send("direct:agg", x)
    outs = [take(engine._buffer("out"), 2) for _ in range(3)]
    assert [x.in_msg.body for x in outs] == [("3", "4", "5"), ("0", "1"), ("2",)]
    # A bucket completed by its size is no warning; each timed-out one is.
    warnings = [(r.route_id, r.exchange_id, r.detail) for r in engine.log.events(event="warning")]
    assert warnings == [
        ("agg", sent[0].id, "bucket a timed out holding 2"),
        ("agg", sent[2].id, "bucket b timed out holding 1"),
    ]


def test_timed_flush_continues_at_the_next_aggregate(engine):
    # The flushed bucket resumes at the step after its own aggregate, so a
    # second aggregate completes it instead of handing it back to the first.
    rb = RouteBuilder()
    (
        rb.from_("direct:chain", route_id="chain")
        .aggregate(header("id"), ListAppend())
        .completion_timeout(100)
        .aggregate(header("id"), ListAppend())
        .completion_size(1)
        .to("buffered:out")
    )
    (route,) = engine.add_routes(rb)
    for i in range(2):
        engine.send("direct:chain", new_exchange(body=str(i), headers={"id": "k"}))
    out = take(engine._buffer("out"), 2)
    assert out.in_msg.body == (("0", "1"),)
    assert take(engine._buffer("out"), 0.3) is None
    assert all(not state.buckets for state in route._aggregates)


def test_timed_bucket_open_at_stop_is_flushed_after_start(engine):
    # The bucket's deadline passes while the route is stopped; the next start
    # flushes it.
    rb = RouteBuilder()
    (
        rb.from_("buffered:in", route_id="held")
        .aggregate(header("id"), ListAppend())
        .completion_timeout(100)
        .to("buffered:out")
    )
    (route,) = engine.add_routes(rb)
    engine.send("buffered:in", new_exchange(body="a", headers={"id": "k"}))
    time.sleep(0.02)
    route.stop()
    time.sleep(0.2)
    route.start()
    out = take(engine._buffer("out"), 0.5)
    assert out.in_msg.body == ("a",)
    assert all(not state.buckets for state in route._aggregates)


def test_failure_after_a_size_completion_is_logged_on_the_aggregate_route(engine):
    # The merged exchange continues as the aggregate route's own: B logs the
    # failure, and the exchange that filled the bucket returns to A unharmed.
    merged_ids = []

    def boom(x):
        merged_ids.append(x.id)
        raise RuntimeError("after the aggregate")

    rb = RouteBuilder()
    rb.from_("buffered:a", route_id="A").to("direct:b")
    (
        rb.from_("direct:b", route_id="B")
        .aggregate(header("id"), ListAppend())
        .completion_size(2)
        .process(boom)
    )
    route_a, _ = engine.add_routes(rb)
    sent = [new_exchange(body=b, headers={"id": "k"}) for b in ("x", "y")]
    replies = []
    for x in sent:
        engine.call(lambda x=x: route_a.process(x, replies.append), wait=True)
    assert replies == sent
    (error,) = engine.log.events(event="error")
    assert (error.route_id, error.exchange_id) == ("B", merged_ids[0])
    assert merged_ids[0] not in (x.id for x in sent)


def test_merge_that_raises_on_a_timeout_is_logged_and_spares_the_other_buckets(engine):
    class RefuseKeyA(ListAppend):
        def merge(self, exchanges):
            if exchanges[0].in_msg.headers["id"] == "a":
                raise ValueError("refused")
            return super().merge(exchanges)

    rb = RouteBuilder()
    (
        rb.from_("direct:agg", route_id="agg")
        .aggregate(header("id"), RefuseKeyA())
        .completion_timeout(100)
        .to("buffered:out")
    )
    (route,) = engine.add_routes(rb)
    first = new_exchange(body="1", headers={"id": "a"})
    engine.send("direct:agg", first)
    engine.send("direct:agg", new_exchange(body="2", headers={"id": "b"}))
    out = take(engine._buffer("out"), 2)
    assert out.in_msg.body == ("2",)
    (error,) = engine.log.events(event="error")
    assert (error.route_id, error.exchange_id) == ("agg", first.id)
    assert "refused" in error.detail
    assert all(not state.buckets for state in route._aggregates)


def test_split_then_aggregate_identity_route(engine):
    rb = RouteBuilder()
    (
        rb.from_("direct:sa", route_id="sa")
        .set_header("n", expr("${body.size}"))
        .split(body())
        .aggregate(header("n"), ListAppend())
        .completion_size(header("n"))
        .to("buffered:out")
    )
    engine.add_routes(rb)
    engine.send("direct:sa", new_exchange(body=["p", "q", "r"]))
    out = take(engine._buffer("out"), 1)
    assert out.in_msg.body == ("p", "q", "r")


# --- idempotent consumer --------------------------------------------------------------


def test_idempotent_pass_pass_drop(engine):
    rb = RouteBuilder()
    (
        rb.from_("direct:idem", route_id="idem")
        .idempotent_consumer(header("actor"), IdempotentRepository(100))
        .to("buffered:out")
    )
    engine.add_routes(rb)
    for actor in ("a", "b", "a"):
        engine.send("direct:idem", new_exchange(headers={"actor": actor}))
    out = drain(engine._buffer("out"))
    assert [x.in_msg.headers["actor"] for x in out] == ["a", "b"]
    assert len(engine.log.events(event="drop", route_id="idem")) == 1


def test_idempotent_eviction_lets_old_key_pass():
    repo = IdempotentRepository(2)
    outcomes = []
    for key in ("a", "b", "c", "a"):
        if repo.contains(key):
            outcomes.append("drop")
        else:
            repo.add(key)
            outcomes.append("pass")
    assert outcomes == ["pass", "pass", "pass", "pass"]


def test_idempotent_repo_capacity_bound():
    repo = IdempotentRepository(3)
    for i in range(10):
        repo.add(str(i))
    assert len(repo) == 3


# --- transform --------------------------------------------------------------------


def test_transform_rows_to_quoted_list():
    rows = RowSet(("email",), [{"email": "a@x"}, {"email": "b@x"}])
    x = new_exchange(body=rows)
    transform_rows_to_quoted_list(x, "email")
    assert stringify(x.in_msg.body) == '["a@x","b@x"]'


def test_transform_empty_rowset():
    x = new_exchange(body=RowSet(("email",), []))
    transform_rows_to_quoted_list(x, "email")
    assert stringify(x.in_msg.body) == "[]"


def test_transform_missing_column():
    x = new_exchange(body=RowSet(("name",), [{"name": "a"}]))
    with pytest.raises(MissingColumnError):
        transform_rows_to_quoted_list(x, "email")


# --- lifecycle ---------------------------------------------------------------------


def test_suspend_resume_stop_transitions(engine):
    rb = RouteBuilder()
    rb.from_("buffered:src", route_id="r")
    (ctl,) = engine.add_routes(rb)
    assert ctl.state is RouteState.STARTED
    ctl.suspend()
    assert ctl.state is RouteState.SUSPENDED
    with pytest.raises(InvalidTransitionError):
        ctl.suspend()
    ctl.resume()
    assert ctl.state is RouteState.STARTED
    ctl.stop()
    assert ctl.state is RouteState.STOPPED
    with pytest.raises(InvalidTransitionError):
        ctl.resume()
    with pytest.raises(InvalidTransitionError):
        ctl.stop()


def test_suspended_route_emits_nothing_until_resumed(engine):
    rb = RouteBuilder()
    rb.from_("buffered:in", route_id="pipe").to("buffered:out")
    (ctl,) = engine.add_routes(rb)
    engine._buffer("in").put(new_exchange(body="1"))
    assert take(engine._buffer("out"), 1).in_msg.body == "1"
    ctl.suspend()
    time.sleep(0.1)
    engine._buffer("in").put(new_exchange(body="2"))
    time.sleep(0.3)
    assert not engine._buffer("out").items
    ctl.resume()
    assert take(engine._buffer("out"), 1).in_msg.body == "2"


def test_pipeline_deterministic_sequence(engine):
    rb = RouteBuilder()
    (
        rb.from_("direct:det", route_id="det")
        .set_header("tag", expr("${body}!"))
        .to("buffered:out")
    )
    engine.add_routes(rb)
    for i in range(20):
        engine.send("direct:det", new_exchange(body=str(i)))
    out = drain(engine._buffer("out"))
    assert [x.in_msg.headers["tag"] for x in out] == [f"{i}!" for i in range(20)]


def test_duplicate_route_id_rejected(engine):
    rb = RouteBuilder()
    rb.from_("direct:x1", route_id="same")
    rb.from_("direct:x2", route_id="same")
    with pytest.raises(RouteConfigError):
        engine.add_routes(rb)


def test_direct_route_survives_stop_and_restart(engine):
    rb = RouteBuilder()
    rb.from_("direct:again", route_id="again").to("buffered:out")
    (ctl,) = engine.add_routes(rb)
    ctl.stop()
    engine.start()
    engine.send("direct:again", new_exchange(body="back"))
    assert take(engine._buffer("out"), 1).in_msg.body == "back"


def test_start_after_a_missing_component_completes_the_route(engine):
    rb = RouteBuilder()
    rb.from_("direct:late", route_id="late").to("later:out")
    with pytest.raises(UnknownSchemeError):
        engine.add_routes(rb)
    engine.add_component("later", engine.component("buffered"))
    engine.start()
    engine.send("direct:late", new_exchange(body="made"))
    assert take(engine._buffer("out"), 1).in_msg.body == "made"


def test_two_routes_cannot_share_a_direct_name(engine):
    rb = RouteBuilder()
    rb.from_("direct:shared", route_id="one")
    rb.from_("direct:shared", route_id="two")
    with pytest.raises(RouteConfigError):
        engine.add_routes(rb)


# --- event log ---------------------------------------------------------------


def test_a_detail_with_line_breaks_is_written_as_one_line(tmp_path):
    log = EventLog()
    log.emit("r", "error", "x1", detail="first\nsecond\rthird")
    (record,) = log.records()
    assert record.detail == "first\nsecond\rthird"
    path = tmp_path / "events.log"
    log.write(str(path))
    (line,) = path.read_text(encoding="utf-8").splitlines()
    assert line.endswith(" r error x1 first second third")


def test_a_record_is_an_immutable_tuple_with_named_fields():
    log = EventLog()
    created = log.last_activity
    assert created <= time.time()
    log.emit("r", "send", "x1", detail="direct:out")
    log.emit("r", "lifecycle")
    sent, lifecycle = log.records()
    assert isinstance(sent, EventRecord) and isinstance(sent, tuple)
    assert sent._fields == ("ts", "route_id", "event", "exchange_id", "detail")
    assert sent == EventRecord(sent.ts, "r", "send", "x1", "direct:out")
    assert lifecycle[1:] == ("r", "lifecycle", "-", "")
    assert created <= sent.ts <= lifecycle.ts == log.last_activity
    with pytest.raises(AttributeError):
        sent.detail = "changed"


def test_concurrent_emits_lose_no_record_and_every_read_is_a_prefix():
    log = EventLog()
    writers, per_writer = 4, 5_000
    snapshots = []

    def write(n):
        for i in range(per_writer):
            log.emit(f"w{n}", "send", str(i))
            if i % 100 == 0:
                time.sleep(0)  # lets the reader in while the log grows

    def read():
        # Keeps a snapshot per 500 new records, to bound the memory held.
        kept = 0
        while any(t.is_alive() for t in threads):
            records, events = log.records(), log.events(route_id="w0")
            if len(records) >= kept + 500:
                snapshots.append((records, events))
                kept = len(records)

    threads = [threading.Thread(target=write, args=(n,)) for n in range(writers)]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        reader.start()
        for t in [*threads, reader]:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [*threads, reader])

    final = log.records()
    assert len(final) == writers * per_writer
    for n in range(writers):
        assert [r.exchange_id for r in final if r.route_id == f"w{n}"] == [str(i) for i in range(per_writer)]
    w0 = log.events(route_id="w0")
    assert any(len(records) < len(final) for records, _ in snapshots)  # read while growing
    for records, events in snapshots:
        assert records == final[: len(records)]
        assert events == w0[: len(events)]
