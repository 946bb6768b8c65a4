import threading
import time

import pytest

from routebus.messages import ExchangePattern, new_exchange
from routebus.routing import RouteBuilder, RouteEngine, RouteState
from routebus.terms import Str, TermSyntaxError, parse_term
from routebus.services import (
    BrokerComponent,
    BrokerService,
    CoordComponent,
    CoordService,
    MailComponent,
    MailStore,
    MAIL_POLL_LIMIT,
    MailtoComponent,
    MissingRecipientsError,
    NodeExistsError,
    NoNodeError,
    NoParentError,
    TableComponent,
    TableStore,
    TimerComponent,
    UnknownAccountError,
    UnknownColumnError,
    UnknownTableError,
    UnsupportedSqlError,
)

from conftest import take, wait_for


@pytest.fixture
def engine():
    eng = RouteEngine()
    yield eng
    eng.stop()


# --- broker -------------------------------------------------------------------


def test_queue_message_retained_until_consumed():
    broker = BrokerService()
    broker.send_queue("q1", new_exchange(body="m"))
    assert take(broker.queue("q1"), 1).in_msg.body == "m"


def test_topic_copies_to_each_current_subscriber():
    broker = BrokerService()
    s1 = broker.subscribe_topic("t")
    s2 = broker.subscribe_topic("t")
    broker.send_topic("t", new_exchange(body="m"))
    assert take(s1, 1).in_msg.body == "m"
    assert take(s2, 1).in_msg.body == "m"


def test_topic_subscriber_after_publish_misses_message():
    broker = BrokerService()
    broker.send_topic("t", new_exchange(body="early"))
    late = broker.subscribe_topic("t")
    broker.send_topic("t", new_exchange(body="late"))
    assert take(late, 1).in_msg.body == "late"
    assert not late.items


def test_destination_override_header(engine):
    broker = BrokerService()
    engine.add_component("broker", BrokerComponent(broker))
    rb = RouteBuilder()
    rb.from_("direct:send", route_id="send").to("broker:queue:dummy")
    engine.add_routes(rb)
    x = new_exchange(body="m", headers={"broker.destination": "container0000000001"})
    engine.send("direct:send", x)
    assert take(broker.queue("container0000000001"), 1).in_msg.body == "m"
    assert not broker.queue("dummy").items


def test_broker_producer_sends_a_term_body_as_its_canonical_text(engine):
    broker = BrokerService()
    engine.add_component("broker", BrokerComponent(broker))
    rb = RouteBuilder()
    rb.from_("direct:send", route_id="send").to("broker:queue:out")
    engine.add_routes(rb)
    engine.send("direct:send", new_exchange(body=parse_term('offer( "a\\"b" , [1] )')))
    assert take(broker.queue("out"), 1).in_msg.body == 'offer("a\\"b",[1])'


def test_broker_queue_exactly_once_many_consumers():
    broker = BrokerService()
    total = 1000
    for i in range(total):
        broker.send_queue("work", new_exchange(body=i))
    seen = []
    lock = threading.Lock()

    def consume():
        while True:
            x = take(broker.queue("work"), 0.2)
            if x is None:
                return
            with lock:
                seen.append(x.in_msg.body)

    threads = [threading.Thread(target=consume) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(seen) == list(range(total))


def test_broker_route_bridge_queue_consumer(engine):
    broker = BrokerService()
    engine.add_component("broker", BrokerComponent(broker))
    rb = RouteBuilder()
    rb.from_("broker:queue:c1", route_id="in").to("buffered:sink")
    engine.add_routes(rb)
    broker.send_queue("c1", new_exchange(body="remote"))
    assert take(engine._buffer("sink"), 2).in_msg.body == "remote"


# --- coordination ----------------------------------------------------------------


def test_ephemeral_sequential_names_zero_padded():
    coord = CoordService()
    session = coord.create_session()
    coord.create(None, "/agents")
    p1 = coord.create(session, "/agents/agent", "a", "EPHEMERAL_SEQUENTIAL")
    p2 = coord.create(session, "/agents/agent", "b", "EPHEMERAL_SEQUENTIAL")
    assert p1 == "/agents/agent0000000000"
    assert p2 == "/agents/agent0000000001"


def test_sequence_counter_never_reuses_after_delete():
    coord = CoordService()
    session = coord.create_session()
    coord.create(None, "/g")
    p1 = coord.create(session, "/g/n", "", "EPHEMERAL_SEQUENTIAL")
    coord.delete(p1)
    p2 = coord.create(session, "/g/n", "", "EPHEMERAL_SEQUENTIAL")
    assert p2.endswith("0000000001")


def test_duplicate_persistent_node_rejected():
    coord = CoordService()
    coord.create(None, "/x")
    with pytest.raises(NodeExistsError):
        coord.create(None, "/x")


def test_missing_parent_rejected_and_auto_parents():
    coord = CoordService()
    with pytest.raises(NoParentError):
        coord.create(None, "/a/b")
    coord.create(None, "/a/b", auto_parents=True)
    assert coord.exists("/a")


def test_get_data_round_trip_and_missing_node():
    coord = CoordService()
    coord.create(None, "/agents")
    session = coord.create_session()
    path = coord.create(session, "/agents/agent", "c1__alice", "EPHEMERAL_SEQUENTIAL")
    assert coord.get_data(path) == "c1__alice"
    coord.create(None, "/empty", "")
    assert coord.get_data("/empty") == ""
    with pytest.raises(NoNodeError):
        coord.get_data("/gone")


def test_watch_emits_current_list_then_changes():
    coord = CoordService()
    coord.create(None, "/agents")
    session = coord.create_session()
    coord.create(session, "/agents/agent", "", "EPHEMERAL_SEQUENTIAL")
    stream = coord.watch_children("/agents", repeat=True)
    assert take(stream, 1) == ["agent0000000000"]
    coord.create(session, "/agents/agent", "", "EPHEMERAL_SEQUENTIAL")
    assert take(stream, 1) == ["agent0000000000", "agent0000000001"]


def test_watch_one_emission_per_change():
    coord = CoordService()
    coord.create(None, "/g")
    stream = coord.watch_children("/g", repeat=True)
    assert take(stream, 1) == []
    session = coord.create_session()
    for _ in range(3):
        coord.create(session, "/g/n", "", "EPHEMERAL_SEQUENTIAL")
    emissions = []
    while True:
        got = take(stream, 0.2)
        if got is None:
            break
        emissions.append(got)
    assert len(emissions) == 3


def test_session_expiry_deletes_ephemerals_and_fires_watch():
    coord = CoordService()
    coord.create(None, "/agents")
    s1 = coord.create_session()
    s2 = coord.create_session()
    coord.create(s1, "/agents/agent", "a", "EPHEMERAL_SEQUENTIAL")
    coord.create(s1, "/agents/agent", "b", "EPHEMERAL_SEQUENTIAL")
    keep = coord.create(s2, "/agents/agent", "c", "EPHEMERAL_SEQUENTIAL")
    stream = coord.watch_children("/agents", repeat=True)
    take(stream, 1)  # initial 3-element list
    coord.expire_session(s1)
    final = None
    for _ in range(2):  # two deletions, one emission each
        final = take(stream, 1)
    assert final == [keep.rsplit("/", 1)[-1]]


def test_coord_consumer_endpoint_emits_child_lists(engine):
    coord = CoordService()
    coord.create(None, "/agents")
    session = coord.create_session()
    engine.add_component("coord", CoordComponent(coord, session))
    rb = RouteBuilder()
    rb.from_("coord://srv/agents?listChildren=true&repeat=true", route_id="watch").to(
        "buffered:out"
    )
    engine.add_routes(rb)
    first = take(engine._buffer("out"), 2)
    assert first.in_msg.body == ()
    coord.create(session, "/agents/agent", "c1__a", "EPHEMERAL_SEQUENTIAL")
    second = take(engine._buffer("out"), 2)
    assert second.in_msg.body == ("agent0000000000",)


def test_coord_producer_endpoint_creates_node(engine):
    coord = CoordService()
    coord.create(None, "/agents")
    session = coord.create_session()
    engine.add_component("coord", CoordComponent(coord, session))
    rb = RouteBuilder()
    rb.from_("direct:reg", route_id="reg").to(
        "coord://srv/agents/agent?create=true&createMode=EPHEMERAL_SEQUENTIAL"
    )
    engine.add_routes(rb)
    engine.send("direct:reg", new_exchange(body="c1__alice"))
    assert coord.get_data("/agents/agent0000000000") == "c1__alice"


# --- mail ------------------------------------------------------------------------


def test_poll_sets_headers_and_flags():
    store = MailStore()
    store.add_account("to.share")
    store.deliver(["to.share"], "alice@x", "hello", "body text")
    mails = store.poll("to.share")
    assert len(mails) == 1
    assert mails[0].from_addr == "alice@x"
    assert mails[0].subject == "hello"
    assert store.poll("to.share") == []  # no longer unread


def test_poll_delete_and_copy_to():
    store = MailStore()
    store.add_account("to.share")
    store.deliver(["to.share"], "a@x", "s", "b")
    store.poll("to.share", delete=True, copy_to="processed")
    assert store.folder("to.share", "inbox") == []
    assert len(store.folder("to.share", "processed")) == 1


def test_poll_delete_keeps_only_the_mail_read_earlier():
    store = MailStore()
    store.add_account("to.share")
    store.deliver(["to.share"], "a@x", "old1", "b")
    store.deliver(["to.share"], "a@x", "old2", "b")
    store.poll("to.share")  # read, but kept in the inbox
    for subject in ("new1", "new2", "new3"):
        store.deliver(["to.share"], "a@x", subject, "b")
    polled = store.poll("to.share", delete=True, copy_to="processed")
    assert [m.subject for m in polled] == ["new1", "new2", "new3"]
    assert [m.subject for m in store.folder("to.share", "inbox")] == ["old1", "old2"]
    assert [m.subject for m in store.folder("to.share", "processed")] == ["new1", "new2", "new3"]


def test_unknown_account_poll():
    store = MailStore()
    with pytest.raises(UnknownAccountError):
        store.poll("nope")


def test_deliver_shares_one_recipient_tuple():
    store = MailStore()
    store.deliver(["a@x", "b@x", "c@x"], "s@x", "subj", "body")
    copies = [store.folder(a, "inbox")[0] for a in ("a@x", "b@x", "c@x")]
    assert copies[0].to == ("a@x", "b@x", "c@x")
    assert all(copy.to is copies[0].to for copy in copies)
    # The mail is stored once: every inbox holds the one immutable object.
    assert all(copy is copies[0] for copy in copies)
    with pytest.raises(AttributeError):
        copies[0].subject = "changed"


def test_read_state_is_per_account():
    store = MailStore()
    store.deliver(["a@x", "b@x"], "s@x", "subj", "body")
    assert [m.subject for m in store.poll("a@x")] == ["subj"]
    assert store.poll("a@x") == []
    assert [m.subject for m in store.poll("b@x")] == ["subj"]


def test_recipient_named_twice_gets_one_inbox_entry():
    store = MailStore()
    ids = store.deliver(["a@x", "b@x", "a@x"], "s@x", "subj", "body")
    assert len(ids) == 2 and len(set(ids)) == 1
    assert len(store.folder("a@x", "inbox")) == 1
    assert store.folder("a@x", "inbox")[0].to == ("a@x", "b@x")


def test_poll_without_delete_then_returns_only_newer_mail():
    store = MailStore()
    store.deliver(["a@x"], "s@x", "old", "body")
    store.poll("a@x")
    store.deliver(["a@x"], "s@x", "new1", "body")
    store.deliver(["a@x"], "s@x", "new2", "body")
    assert [m.subject for m in store.poll("a@x")] == ["new1", "new2"]
    assert [m.subject for m in store.folder("a@x", "inbox")] == ["old", "new1", "new2"]


def test_mail_conservation_on_deliver():
    store = MailStore()
    before = sum(len(store.folder(a, "inbox")) for a in store.accounts())
    store.deliver(["u1@x", "u2@x"], "from@x", "s", "b")
    after = sum(len(store.folder(a, "inbox")) for a in store.accounts())
    assert after - before == 2


def mail_subjects(store, folder):
    return [m.subject for m in store.folder("to.share", folder)]


@pytest.mark.parametrize("delete, copy_to", [(True, "processed"), (True, None), (False, "processed"), (False, None)])
def test_poll_with_a_limit_takes_only_the_oldest_unread_batch(delete, copy_to):
    store = MailStore()
    store.deliver(["to.share"], "a@x", "old", "b")
    store.poll("to.share")  # read, but kept in the inbox
    for k in range(5):
        store.deliver(["to.share"], "a@x", f"m{k}", "b")
    assert [m.subject for m in store.poll("to.share", delete, copy_to, limit=2)] == ["m0", "m1"]
    assert mail_subjects(store, "inbox") == ["old"] + [f"m{k}" for k in range(2 if delete else 0, 5)]
    assert mail_subjects(store, "processed") == (["m0", "m1"] if copy_to else [])
    # Only the batch left the unread tail: the next poll goes on from it.
    assert [m.subject for m in store.poll("to.share", delete, copy_to, limit=2)] == ["m2", "m3"]
    assert [m.subject for m in store.poll("to.share", delete, copy_to)] == ["m4"]
    assert store.poll("to.share", delete, copy_to, limit=2) == []
    assert mail_subjects(store, "inbox") == ["old"] + ([] if delete else [f"m{k}" for k in range(5)])
    assert mail_subjects(store, "processed") == ([f"m{k}" for k in range(5)] if copy_to else [])


def mail_route_after_one_turn(engine, store, unread, then):
    """A started ``mail:`` route over ``unread`` mails, and the subjects it
    receives; ``then(route, received)`` runs in the loop turn right after the
    route's first, as the route queues again behind it."""
    store.add_account("to.share")
    for k in range(unread):
        store.deliver(["to.share"], "a@x", f"m{k}", "b")
    engine.add_component("mail", MailComponent(store))
    received = []
    rb = RouteBuilder()
    rb.from_("mail:to.share?delete=true&copyTo=processed", route_id="poll").process(
        lambda x: received.append(x.in_msg.headers["subject"])
    )
    engine.start()
    held, release = threading.Event(), threading.Event()
    engine.submit(lambda: (held.set(), release.wait(2.0)))
    assert held.wait(2.0)
    (route,) = engine.add_routes(rb)  # its first turn queues behind the held one
    engine.submit(lambda: then(route, received))
    release.set()
    return route, received


def test_one_mail_route_turn_takes_one_poll_limit_and_leaves_the_rest_unread(engine):
    store, after_first = MailStore(), []
    subjects = [f"m{k}" for k in range(MAIL_POLL_LIMIT + 5)]
    _route, received = mail_route_after_one_turn(
        engine,
        store,
        len(subjects),
        lambda route, received: after_first.append((list(received), mail_subjects(store, "inbox"))),
    )
    assert wait_for(lambda: len(received) == len(subjects), timeout=2.0)
    assert after_first == [(subjects[:MAIL_POLL_LIMIT], subjects[MAIL_POLL_LIMIT:])]
    assert received == subjects  # the next turn took the rest, in order
    assert mail_subjects(store, "inbox") == []
    assert mail_subjects(store, "processed") == subjects


def test_mail_route_stopped_between_turns_leaves_the_mails_it_did_not_poll_unread(engine):
    store = MailStore()
    subjects = [f"m{k}" for k in range(MAIL_POLL_LIMIT + 7)]
    route, received = mail_route_after_one_turn(
        engine, store, len(subjects), lambda route, received: route.stop()
    )
    assert wait_for(lambda: route.state is RouteState.STOPPED, timeout=2.0)
    engine.call(lambda: None, wait=True)  # the route's queued turn has seen the stop
    assert received == subjects[:MAIL_POLL_LIMIT]
    assert mail_subjects(store, "inbox") == subjects[MAIL_POLL_LIMIT:]
    assert mail_subjects(store, "processed") == subjects[:MAIL_POLL_LIMIT]
    route.start()  # the unread mails are the next start's
    assert wait_for(lambda: len(received) == len(subjects), timeout=2.0)
    assert received == subjects
    assert mail_subjects(store, "inbox") == []


def test_mail_consumer_and_producer_endpoints(engine):
    store = MailStore()
    store.add_account("to.share")
    engine.add_component("mail", MailComponent(store))
    engine.add_component("mailto", MailtoComponent(store))
    rb = RouteBuilder()
    rb.from_("mail:to.share?delete=true&copyTo=processed", route_id="poll").to("buffered:got")
    rb.from_("direct:send", route_id="send").to("mailto:to.share")
    engine.add_routes(rb)
    store.deliver(["to.share"], "alice@x", "subj", "the body")
    polled = take(engine._buffer("got"), 2)
    assert polled.in_msg.headers["from"] == "alice@x"
    assert polled.in_msg.headers["subject"] == "subj"
    assert polled.in_msg.body == "the body"
    x = new_exchange(
        body="fwd body",
        headers={"to": '["u1@x","u2@x"]', "from": "to.share@bigcorp.com", "subject": "subj"},
    )
    engine.send("direct:send", x)
    assert len(store.folder("u1@x", "inbox")) == 1
    assert len(store.folder("u2@x", "inbox")) == 1
    assert store.folder("u1@x", "inbox")[0].from_addr == "to.share@bigcorp.com"
    assert engine.log.events(event="forward", route_id="send")


def test_mail_producer_takes_the_text_of_string_terms_in_a_to_sequence(engine):
    # A string term element names its text, as in list text; it is not
    # rendered with its quotes.
    store = MailStore()
    engine.add_component("mailto", MailtoComponent(store))
    rb = RouteBuilder()
    rb.from_("direct:send", route_id="send").to("mailto:to.share")
    engine.add_routes(rb)
    for to in ([Str("a@x"), "b@x"], (Str("a@x"), "b@x")):
        engine.send("direct:send", new_exchange(body="x", headers={"to": to}))
    assert [len(store.folder(e, "inbox")) for e in ("a@x", "b@x")] == [2, 2]
    assert store.accounts() == ["a@x", "b@x"]
    forwards = engine.log.events(event="forward", route_id="send")
    assert [r.detail for r in forwards] == ["to=[a@x,b@x] subject="] * 2


def test_mail_producer_missing_recipients(engine):
    store = MailStore()
    engine.add_component("mailto", MailtoComponent(store))
    rb = RouteBuilder()
    rb.from_("direct:send", route_id="send").to("mailto:to.share")
    engine.add_routes(rb)
    with pytest.raises(MissingRecipientsError):
        engine._direct["send"].process_inline(new_exchange(body="x", headers={"to": "[]"}))


def test_mail_producer_rejects_list_text_that_does_not_parse(engine):
    store = MailStore()
    engine.add_component("mailto", MailtoComponent(store))
    rb = RouteBuilder()
    rb.from_("direct:send", route_id="send").to("mailto:to.share")
    engine.add_routes(rb)
    with pytest.raises(TermSyntaxError):
        engine._direct["send"].process_inline(new_exchange(body="x", headers={"to": '["a@x",'}))
    assert store.accounts() == []
    assert not engine.log.events(event="forward")


# --- tables ------------------------------------------------------------------------


def users_store(broker=None):
    store = TableStore(broker)
    store.add_table(
        "users",
        ("email", "interests"),
        [
            {"email": "a@x", "interests": "budget"},
            {"email": "b@x", "interests": "travel"},
        ],
    )
    return store


def test_select_single_column():
    rs = users_store().query("select email from users")
    assert rs.columns == ("email",)
    assert [r["email"] for r in rs.rows] == ["a@x", "b@x"]


def test_select_two_columns_case_insensitive():
    rs = users_store().query("SELECT email, interests FROM users")
    assert rs.columns == ("email", "interests")


def test_query_errors():
    store = users_store()
    with pytest.raises(UnknownTableError):
        store.query("select a from nope")
    with pytest.raises(UnknownColumnError):
        store.query("select nope from users")
    with pytest.raises(UnsupportedSqlError):
        store.query("delete from users")


def test_query_is_read_only():
    store = users_store()
    before = store.rows("users")
    rs = store.query("select email from users")
    with pytest.raises(AttributeError):
        rs.rows.append({"email": "hack@x"})
    rs.rows[0]["email"] = "hack@x"
    assert store.rows("users") == before


def test_mutation_publishes_change_descriptor():
    broker = BrokerService()
    store = users_store(broker)
    store.configure_notifications("users", "account-changes", "account", "email")
    sub = broker.subscribe_topic("account-changes")
    store.mutate("users", "insert", {"email": "c@x", "interests": "hr"})
    assert take(sub, 1).in_msg.body == 'account_added("c@x")'
    store.mutate("users", "delete", {"email": "c@x"})
    assert take(sub, 1).in_msg.body == 'account_removed("c@x")'
    assert [r["email"] for r in store.rows("users")] == ["a@x", "b@x"]


def test_mutation_without_subscribers_still_applies():
    store = users_store(BrokerService())
    store.configure_notifications("users", "t", "account", "email")
    store.mutate("users", "insert", {"email": "c@x", "interests": "hr"})
    assert len(store.rows("users")) == 3


def test_table_producer_endpoint_runs_query(engine):
    store = users_store()
    engine.add_component("table", TableComponent(store))
    rb = RouteBuilder()
    rb.from_("direct:q", route_id="q").to("table:dataSource")
    engine.add_routes(rb)
    x = new_exchange(ExchangePattern.IN_OUT, "select email from users")
    engine.send("direct:q", x)
    assert [r["email"] for r in x.in_msg.body.rows] == ["a@x", "b@x"]


# --- timer ------------------------------------------------------------------------


def test_timer_one_shot(engine):
    engine.add_component("timer", TimerComponent())
    rb = RouteBuilder()
    rb.from_("timer:t?delay=100", route_id="t").to("buffered:ticks")
    engine.add_routes(rb)
    t0 = time.monotonic()
    tick = take(engine._buffer("ticks"), 2)
    assert tick.in_msg.body is None
    assert time.monotonic() - t0 >= 0.08
    time.sleep(0.3)
    assert not engine._buffer("ticks").items


@pytest.mark.parametrize("period", ["0", "-5"])
def test_timer_period_must_be_positive(period):
    # A period of 0 would fire again at the same instant, forever, and the
    # loop runs due calls first.  No loop runs here: start is on this thread.
    engine = RouteEngine()
    engine.add_component("timer", TimerComponent())
    rb = RouteBuilder()
    rb.from_(f"timer:t?period={period}", route_id="t").to("buffered:ticks")
    (route,) = engine.add_routes(rb, start=False)
    with pytest.raises(ValueError, match="period"):
        route.start()
    assert engine._loop is None


def test_timer_periodic(engine):
    engine.add_component("timer", TimerComponent())
    rb = RouteBuilder()
    rb.from_("timer:p?delay=0&period=50", route_id="p").to("buffered:ticks")
    engine.add_routes(rb)
    time.sleep(0.25)
    engine.stop()
    count = len(engine._buffer("ticks").items)
    assert count >= 3
