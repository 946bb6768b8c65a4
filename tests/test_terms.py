import pytest
from hypothesis import given, strategies as st

from routebus.terms import (
    ActionTerm,
    ArgumentIndexError,
    Atom,
    Compound,
    ListTerm,
    NotAVariableError,
    Number,
    Str,
    TermSyntaxError,
    Var,
    bind_argument,
    free_variables,
    parse_term,
    render_term,
)


def test_parse_atom():
    assert parse_term("foo") == Atom("foo")


def test_parse_agents_list_of_strings():
    t = parse_term('agents(["c-1__a","c-1__b"])')
    assert t == Compound("agents", (ListTerm((Str("c-1__a"), Str("c-1__b"))),))


def test_parse_check_relevance_arity_four():
    t = parse_term('check_relevance(42, "bob@x", "hi", "text")')
    assert isinstance(t, Compound)
    assert t.functor == "check_relevance"
    assert len(t.args) == 4
    assert t.args == (Number(42), Str("bob@x"), Str("hi"), Str("text"))


def test_parse_variable_and_nested():
    t = parse_term("get_email_accounts(Accounts)")
    assert t == Compound("get_email_accounts", (Var("Accounts"),))


def test_parse_annotations():
    t = parse_term("p(1)[a,b]")
    assert t == Compound("p", (Number(1),), (Atom("a"), Atom("b")))
    t = parse_term("ok[src(x)]")
    assert t == Atom("ok", (Compound("src", (Atom("x"),)),))


def test_parse_string_escapes():
    assert parse_term('"say \\"hi\\""') == Str('say "hi"')


def test_backslash_round_trips():
    assert render_term(Str("a\\b")) == '"a\\\\b"'
    assert parse_term(render_term(Str('end\\'))) == Str('end\\')
    with pytest.raises(TermSyntaxError):
        parse_term('"a\\nb"')


def test_parse_negative_and_decimal_numbers():
    assert parse_term("-3") == Number(-3)
    assert parse_term("2.5") == Number(2.5)


def test_parse_errors_carry_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("foo(")
    assert err.value.position == 4
    with pytest.raises(TermSyntaxError):
        parse_term("")
    with pytest.raises(TermSyntaxError):
        parse_term("foo)extra")
    with pytest.raises(TermSyntaxError):
        parse_term('"unterminated')


def test_render_atom():
    assert render_term(Atom("ok")) == "ok"


def test_render_compound_with_annotation_reparses():
    t = Compound("p", (Number(1),), (Atom("a"),))
    text = render_term(t)
    assert text == "p(1)[a]"
    assert parse_term(text) == t


def test_render_list_of_strings():
    assert render_term(ListTerm((Str("a@x"),))) == '["a@x"]'


def test_whitespace_normalised_round_trip():
    text = 'relevant( 42 , ["u1@x" ,  "u2@x"] )'
    assert render_term(parse_term(text)) == 'relevant(42,["u1@x","u2@x"])'


# --- binding -------------------------------------------------------------


def email_list():
    return ListTerm((Str("a@x"), Str("b@x")))


def test_bind_argument_instantiates_variable():
    action = ActionTerm(parse_term("get_email_accounts(Accounts)"))
    bound = bind_argument(action, 1, email_list())
    assert render_term(bound.literal) == 'get_email_accounts(["a@x","b@x"])'
    assert bound.free_vars == frozenset()


def test_bind_argument_binds_repeated_variable_everywhere():
    action = ActionTerm(parse_term("p(X,X)"))
    bound = bind_argument(action, 1, Atom("v"))
    assert render_term(bound.literal) == "p(v,v)"


def test_bind_argument_ground_argument_rejected():
    action = ActionTerm(parse_term("p(a)"))
    with pytest.raises(NotAVariableError):
        bind_argument(action, 1, Atom("b"))


def test_bind_argument_index_out_of_range():
    action = ActionTerm(parse_term("p(X)"))
    with pytest.raises(ArgumentIndexError):
        bind_argument(action, 2, Atom("b"))
    with pytest.raises(ArgumentIndexError):
        bind_argument(action, 0, Atom("b"))


def test_binding_then_rebinding_same_index_raises():
    action = ActionTerm(parse_term("p(X)"))
    bound = bind_argument(action, 1, Atom("v"))
    with pytest.raises(NotAVariableError):
        bind_argument(bound, 1, Atom("w"))


def test_free_vars_of_atom_action_is_empty():
    assert ActionTerm(Atom("register")).free_vars == frozenset()


def test_free_variables_nested():
    t = parse_term("p(X,[Y,q(Z)])")
    assert free_variables(t) == frozenset({"X", "Y", "Z"})


# --- property tests -------------------------------------------------------

atom_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
var_names = st.from_regex(r"[A-Z_][A-Za-z0-9_]{0,8}", fullmatch=True)
# The characters the codec escapes (and newline) are drawn on purpose: a
# uniform draw over every character almost never picks them.
string_texts = st.text(
    alphabet=st.one_of(st.sampled_from('\\"\n'), st.characters(blacklist_categories=("Cs",))),
    max_size=12,
)
numbers = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9).map(float),
    st.integers(min_value=-10**6, max_value=10**6).map(lambda n: n / 100.0),
)


def terms(depth: int = 2):
    base = st.one_of(
        atom_names.map(Atom),
        numbers.map(Number),
        string_texts.map(Str),
        var_names.map(Var),
    )
    if depth == 0:
        return base
    sub = terms(depth - 1)
    return st.one_of(
        base,
        st.lists(sub, max_size=3).map(lambda els: ListTerm(tuple(els))),
        st.builds(
            lambda f, args, anns: Compound(f, tuple(args), tuple(anns)),
            atom_names,
            st.lists(sub, min_size=1, max_size=3),
            st.lists(sub, max_size=2),
        ),
        st.builds(
            lambda n, anns: Atom(n, tuple(anns)), atom_names, st.lists(sub, min_size=1, max_size=2)
        ),
    )


@given(terms())
def test_round_trip_random_terms(t):
    assert parse_term(render_term(t)) == t


@pytest.mark.parametrize(
    "text",
    [
        # the shapes the demo routes emit as message/percept bodies
        'agents(["container0000000000__alice","container0000000000__bob"])',
        # emitted by the ask-agents route in demo/routes.py; the explicit id
        # keeps the node id this case has always had
        pytest.param(
            'check_relevance("x1a2b3c4-17","alice@corp","budget review","the draft")',
            id='check_relevance("x1a2b3c4-17", "alice@corp", "budget review", "the draft")',
        ),
        'relevant("x1a2b3c4-17",["a@x","b@x"])',
        'relevant("x1a2b3c4-17",[])',
        '["a@x","b@x","c@x"]',
        'account_added("d@x")',
        'account_removed("d@x")',
        'plans_changed("a@x")',
        "register",
        "get_email_accounts(Accounts)",
    ],
)
def test_route_emitted_shapes_all_parse(text):
    assert render_term(parse_term(text)) == text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_number_round_trips(v):
    assert parse_term(render_term(Number(v))) == Number(v)


def test_exponent_numbers_parse():
    assert parse_term("1e-05") == Number(0.00001)
    assert parse_term("-2.5E+3") == Number(-2500)


@pytest.mark.parametrize("v", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_number_is_not_rendered(v):
    with pytest.raises(ValueError):
        render_term(Number(v))


@pytest.mark.parametrize(
    "text, position, expected",
    [
        ('"unterminated', 13, "closing '\"'"),
        ('p("a\\nb")', 4, "'\\\"' or '\\\\'"),
    ],
)
def test_string_errors_keep_offset_and_text(text, position, expected):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(text)
    assert (err.value.position, err.value.expected) == (position, expected)


@pytest.mark.parametrize(
    "text",
    [
        "x" * 1000 + '"',
        '"' + "x" * 1000,
        "\\" + "y" * 1500 + "\\",
        '"\\' + "z" * 1200 + '\\"' + "w" * 1000,
    ],
)
def test_long_plain_runs_beside_escapes_round_trip(text):
    assert parse_term(render_term(Str(text))) == Str(text)
    assert parse_term(render_term(ListTerm((Str(text), Str(text))))) == ListTerm(
        (Str(text), Str(text))
    )
