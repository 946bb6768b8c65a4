"""The oracle on hand-checked cases, and on one small run of the real demo."""

import time

from oracle import copies_by_token, judge, matches, presence_table
from routebus.demo.config import AgentSpec, ContainerSpec, ScenarioConfig
from routebus.demo.runner import Scenario
from session import Outcomes
from workloads import FROM_ADDR, Mail

USERS = [
    {"email": "a@x", "interests": "budget,planning"},
    {"email": "b@x", "interests": "travel"},
    {"email": "c@x", "interests": "hr,Budget"},
]


def mail(token, subject, body):
    return Mail(int(token[1:]), token, f"{token} {subject}", body, 0.0)


BUDGET = mail("m0000001", "budget review", "numbers attached")
NOBODY = mail("m0000002", "lunch", "see you")
LIFE = (10.0, 12.0)


def test_matching_is_case_folded_substring():
    assert matches("Budget", "the BUDGETS", "")
    assert matches("travel", "x", "time-travelling")
    assert not matches("hr", "x", "y")


def test_reference_recipients_get_exactly_one_copy():
    presence = presence_table(USERS, [])
    assert judge(BUDGET, presence, LIFE, {"a@x": 1, "c@x": 1}).ok
    missing = judge(BUDGET, presence, LIFE, {"a@x": 1})
    assert not missing.ok and not missing.wrong
    extra = judge(BUDGET, presence, LIFE, {"a@x": 1, "c@x": 1, "b@x": 1})
    assert not extra.ok and extra.wrong
    twice = judge(BUDGET, presence, LIFE, {"a@x": 2, "c@x": 1})
    assert not twice.ok and twice.wrong


def test_mail_matching_nobody_passes_only_when_nothing_is_sent():
    presence = presence_table(USERS, [])
    assert judge(NOBODY, presence, LIFE, {}).ok
    assert judge(NOBODY, presence, LIFE, {"a@x": 1}).wrong


def test_changing_table_gives_a_range_of_recipients():
    applied = [
        ("delete", "a@x", "", 5.0, 5.1),  # gone before the mail's life
        ("insert", "d@x", "budget", 11.0, 11.1),  # arrives during it
        ("delete", "c@x", "", 11.5, 11.6),  # leaves during it
        ("insert", "e@x", "budget", 9.0, 9.1),  # present throughout
    ]
    presence = presence_table(USERS, applied)
    assert judge(BUDGET, presence, LIFE, {"e@x": 1}).ok
    assert judge(BUDGET, presence, LIFE, {"e@x": 1, "d@x": 1, "c@x": 1}).ok
    assert not judge(BUDGET, presence, LIFE, {"d@x": 1}).ok
    assert judge(BUDGET, presence, LIFE, {"e@x": 1, "a@x": 1}).wrong


def test_oracle_on_a_small_demo_run():
    """Three mails through the real pipeline: one forwarded to a and c, one
    matching nobody (sends nothing), one with a quote in the subject (the
    known defect: never forwarded, so it fails)."""
    config = ScenarioConfig(
        containers=[ContainerSpec("main", "static", [AgentSpec("alice"), AgentSpec("bob")])],
        users=[dict(u) for u in USERS],
    )
    hostile = mail("m0000003", 'budget "final"', "draft")
    scenario = Scenario(config)
    scenario.start()
    try:
        outcomes = Outcomes(scenario)
        injected = {}
        for m in (BUDGET, NOBODY, hostile):
            injected[m.token] = time.time()
            scenario.inject_mail(FROM_ADDR, m.subject, m.body)
        assert outcomes.wait_for(3, time.monotonic() + 10.0)
    finally:
        scenario.stop()
    inboxes = {a: scenario.mail.folder(a, "inbox") for a in scenario.mail.accounts()}
    copies, foreign = copies_by_token(inboxes)
    assert foreign == 0
    assert copies == {BUDGET.token: {"a@x": 1, "c@x": 1}}
    presence = presence_table(USERS, [])
    verdicts = {
        m.token: judge(m, presence, (injected[m.token], time.time()), copies.get(m.token, {}))
        for m in (BUDGET, NOBODY, hostile)
    }
    assert verdicts[BUDGET.token].ok
    assert verdicts[NOBODY.token].ok
    assert not verdicts[hostile.token].ok and not verdicts[hostile.token].wrong
    assert set(outcomes.forwards) == {BUDGET.token}
