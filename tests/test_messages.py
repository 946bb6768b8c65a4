import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from routebus.messages import (
    EndpointUri,
    ExchangePattern,
    MalformedUriError,
    RowSet,
    new_exchange,
    parse_uri,
)
from routebus.terms import parse_term


def test_parse_agent_uri():
    uri = parse_uri("agent:message?illoc_force=tell&receiver=router")
    assert uri.scheme == "agent"
    assert uri.path == "message"
    assert uri.get("illoc_force") == "tell"
    assert uri.get("receiver") == "router"


def test_parse_coord_uri_keeps_double_slash_path():
    uri = parse_uri("coord://zk1/agents?listChildren=true&repeat=true")
    assert uri.scheme == "coord"
    assert uri.path == "//zk1/agents"
    assert uri.get("listChildren") == "true"
    assert uri.get("repeat") == "true"


def test_parse_direct_uri_no_params():
    uri = parse_uri("direct:ask-agents")
    assert uri.scheme == "direct"
    assert uri.path == "ask-agents"
    assert uri.params == ()


def test_parse_uri_preserves_repeated_params_in_order():
    uri = parse_uri("x:y?a=1&b=2&a=3")
    assert uri.get_all("a") == ["1", "3"]
    assert uri.get("a") == "1"


def test_parse_uri_percent_decoding():
    uri = parse_uri("x:y?q=a%26b%3Dc")
    assert uri.get("q") == "a&b=c"
    assert parse_uri(uri.render()) == uri


def test_malformed_uri():
    with pytest.raises(MalformedUriError):
        parse_uri("no-scheme-here")
    with pytest.raises(MalformedUriError):
        parse_uri(":empty")


def test_regex_survives_uri_round_trip():
    uri = parse_uri(r"agent:message?match=relevant\((.*),(.*)\)&replace=$1:$2")
    assert uri.get("match") == r"relevant\((.*),(.*)\)"
    assert uri.get("replace") == "$1:$2"
    assert parse_uri(uri.render()) == uri


def test_new_exchange_defaults():
    x = new_exchange(ExchangePattern.IN_ONLY, "x", {})
    assert x.pattern is ExchangePattern.IN_ONLY
    assert x.in_msg.body == "x"
    assert x.out_msg is None


def test_new_exchange_ids_distinct():
    a = new_exchange()
    b = new_exchange()
    assert a.id != b.id


def test_in_out_exchange_starts_without_reply():
    x = new_exchange(ExchangePattern.IN_OUT)
    assert x.out_msg is None


def test_exchange_ids_ten_thousand_distinct():
    # Drawn from four threads at once with a short switch interval, as every
    # engine loop and caller thread draws from the one counter without a lock.
    drawn = [[] for _ in range(4)]
    threads = [
        threading.Thread(target=lambda ids=ids: ids.extend(new_exchange().id for _ in range(2_500)))
        for ids in drawn
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len({i for ids in drawn for i in ids}) == 10_000


def test_exchange_copy_owns_its_headers_and_shares_immutable_values():
    # The library's sequence values are tuples and its terms are frozen, so a
    # copy is isolated once it has its own header dicts.
    x = new_exchange(ExchangePattern.IN_OUT, ("a",), {"h": ("v",), "t": parse_term("p(1)")})
    x.out_msg = x.in_msg.copy()
    y = x.copy()
    assert y.id == x.id
    for original, copied in ((x.in_msg, y.in_msg), (x.out_msg, y.out_msg)):
        assert copied.headers is not original.headers
        assert copied.body is original.body
        assert all(copied.headers[k] is original.headers[k] for k in original.headers)
    y.in_msg.headers["h"] = ("w",)
    y.in_msg.headers["new"] = "n"
    assert x.in_msg.headers == {"h": ("v",), "t": parse_term("p(1)")}
    with pytest.raises(AttributeError):
        y.in_msg.body.append("b")
    with pytest.raises(FrozenInstanceError):
        y.in_msg.headers["t"].functor = "q"


def test_rowset_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        RowSet(("a",), [{"b": "1"}])


param_names = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_.]{0,8}", fullmatch=True)
param_values = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)


@given(
    scheme=st.from_regex(r"[a-z][a-z0-9+.-]{0,6}", fullmatch=True),
    path=st.from_regex(r"[a-zA-Z0-9_/.:-]{0,12}", fullmatch=True),
    params=st.lists(st.tuples(param_names, param_values), max_size=4),
)
def test_uri_round_trip(scheme, path, params):
    uri = EndpointUri(scheme, path, tuple(params))
    assert parse_uri(uri.render()) == uri
