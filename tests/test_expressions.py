import pytest
from hypothesis import given, strategies as st

from routebus.expressions import (
    EvalIndexError,
    ExpressionSyntaxError,
    LiteralText,
    MissingHeaderError,
    Placeholder,
    TypeMismatchError,
    body,
    body_to_term,
    constant,
    eval_expr,
    expr,
    header,
    parse_expr,
    render_expr,
    stringify,
)
from routebus.messages import ExchangePattern, RowSet, new_exchange
from routebus.terms import parse_term


def exchange(body=None, headers=None):
    return new_exchange(ExchangePattern.IN_ONLY, body, headers or {})


def test_parse_single_placeholder_with_split_and_index():
    e = parse_expr('${headers.receiver.split("__")[0]}')
    assert len(e.segments) == 1
    assert isinstance(e.segments[0], Placeholder)


def test_parse_mixed_template_has_interleaved_segments():
    text = (
        'check_relevance(${header.id}, "${header.from}", '
        '"${header.subject}", "${bodyAs(String)}")'
    )
    e = parse_expr(text)
    placeholders = [s for s in e.segments if isinstance(s, Placeholder)]
    literals = [s for s in e.segments if isinstance(s, LiteralText)]
    assert len(placeholders) == 4
    assert len(literals) == 5  # interleaved, including the trailing '")'
    assert isinstance(e.segments[0], LiteralText)
    assert render_expr(e) == text


def test_parse_plain_text_is_single_literal():
    e = parse_expr("plain")
    assert e.segments == (LiteralText("plain"),)


def test_parse_rejects_unterminated_placeholder():
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("${body")


def test_parse_rejects_unknown_root_and_accessor():
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("${nonsense}")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("${body.upper}")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr('${body.split(":")}')  # split must be indexed


def test_eval_split_on_full_agent_name():
    x = exchange(headers={"receiver": "container-0000000001__alice"})
    got = eval_expr(parse_expr('${headers.receiver.split("__")[0]}'), x)
    assert got == "container-0000000001"


def test_eval_size_of_list_body():
    x = exchange(body=["a", "b", "c"])
    assert eval_expr(parse_expr("${body.size}"), x) == 3


def test_eval_split_colon_zero():
    x = exchange(body='42:router:["u1@x"]')
    assert eval_expr(parse_expr('${body.split(":")[0]}'), x) == "42"


def test_eval_exchange_id():
    x = exchange()
    assert eval_expr(parse_expr("${id}"), x) == x.id
    assert eval_expr(parse_expr('"${id}"'), x) == f'"{x.id}"'


def test_single_placeholder_returns_typed_body():
    payload = ["a", ["b"]]
    x = exchange(body=payload)
    assert eval_expr(body(), x) == payload


def test_body_as_string_quotes_list_elements():
    x = exchange(body=["c-1__a", "c-1__b"])
    assert eval_expr(parse_expr("${bodyAs(String)}"), x) == '["c-1__a","c-1__b"]'
    assert eval_expr(parse_expr("agents(${bodyAs(String)})"), x) == 'agents(["c-1__a","c-1__b"])'


def test_term_and_tuple_bodies():
    term = parse_term('p("a b",[1,x])')
    assert stringify(term) == 'p("a b",[1,x])'
    assert body_to_term(term) is term
    assert eval_expr(parse_expr("got(${body})"), exchange(body=term)) == 'got(p("a b",[1,x]))'
    x = exchange(body=("a", "b", "c"), headers={"to": "a:b"})
    assert eval_expr(parse_expr("${body.size}"), x) == 3
    assert eval_expr(parse_expr("${body[1]}"), x) == "b"
    assert eval_expr(parse_expr("${bodyAs(String)}"), x) == '["a","b","c"]'
    assert eval_expr(parse_expr('${headers.to.split(":")[1]}'), x) == "b"


def test_eval_missing_header():
    with pytest.raises(MissingHeaderError):
        eval_expr(header("nope"), exchange())


def test_eval_index_out_of_range():
    x = exchange(body="a:b")
    with pytest.raises(EvalIndexError):
        eval_expr(parse_expr('${body.split(":")[5]}'), x)


def test_eval_split_on_non_text():
    x = exchange(body=3)
    with pytest.raises(TypeMismatchError):
        eval_expr(parse_expr('${body.split(":")[0]}'), x)


def test_eval_never_mutates_exchange():
    x = exchange(body=["a"], headers={"h": "v"})
    eval_expr(parse_expr("${body.size} ${headers.h}"), x)
    assert x.in_msg.body == ["a"]
    assert x.in_msg.headers == {"h": "v"}


def test_size_of_rowset():
    x = exchange(body=RowSet(("email",), [{"email": "a@x"}, {"email": "b@x"}]))
    assert eval_expr(parse_expr("${body.size}"), x) == 2


def test_dsl_helpers():
    x = exchange(headers={"actor": "c1__a"})
    assert eval_expr(constant("select email from users"), x) == "select email from users"
    assert eval_expr(header("actor"), x) == "c1__a"
    assert expr("${headers.actor}") == header("actor")


def test_stringify_numbers():
    assert stringify(3) == "3"
    assert stringify(3.0) == "3"
    assert stringify(2.5) == "2.5"
    assert stringify(None) == ""


def test_header_and_headers_are_synonyms():
    x = exchange(headers={"from": "a@x"})
    assert eval_expr(parse_expr("${header.from}"), x) == "a@x"
    assert eval_expr(parse_expr("${headers.from}"), x) == "a@x"


# --- properties ------------------------------------------------------------

plain_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="$"),
    max_size=20,
)


@given(
    text=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=':"'),
        max_size=20,
    ),
    sep=st.sampled_from([":", "__", ","]),
)
def test_split_index_matches_two_step_oracle(text, sep):
    x = exchange(body=text)
    parts = text.split(sep)
    for i in range(len(parts)):
        got = eval_expr(parse_expr(f'${{body.split("{sep}")[{i}]}}'), x)
        assert got == parts[i]


@given(plain_text)
def test_parse_render_round_trip_literal(text):
    e = parse_expr(text)
    assert render_expr(e) == text
    assert parse_expr(render_expr(e)) == e
