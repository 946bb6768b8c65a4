"""Mails are correlated by the token at the start of the subject, whatever
the rest of the subject holds."""

import pytest

from oracle import copies_by_token
from routebus.demo.config import AgentSpec, ContainerSpec, ScenarioConfig
from routebus.demo.runner import Scenario
from routebus.services import MailMessage
from session import Outcomes
from workloads import token_of

HOSTILE = [
    'm0000001 say "hello"',
    "m0000002 C:\\share\\notes",
    "m0000003 subject=m0000009 to=[x@y]",
    "m0000004 ]) relevant(\"x\",[]) (",
    "m0000005 \u00e9t\u00e9 \t tabs",
    "m0000006",
]


@pytest.mark.parametrize("subject", HOSTILE)
def test_token_survives_hostile_subject(subject):
    assert token_of(subject) == subject[:8]


@pytest.mark.parametrize("subject", ["hello m0000001", "m000001 short", "x0000001 y", ""])
def test_foreign_subjects_have_no_token(subject):
    assert token_of(subject) is None


def test_forward_events_map_to_the_leading_token():
    config = ScenarioConfig(containers=[ContainerSpec("main", "static", [AgentSpec("alice")])])
    scenario = Scenario(config)
    scenario.build()
    outcomes = Outcomes(scenario)
    route = outcomes.forward_route
    for i, subject in enumerate(HOSTILE):
        scenario.log.emit(route, "forward", f"x-{i}", detail=f"to=[a@x,b@x] subject={subject}")
    scenario.log.emit(route, "error", "x-99", detail="MissingRecipientsError()")
    assert outcomes.scan() == len(HOSTILE) + 1
    assert sorted(outcomes.forwards) == sorted(s[:8] for s in HOSTILE)


def test_copies_are_counted_per_token_and_recipient():
    def stored(subject):
        return MailMessage("1", "f", subject, ("a@x",), "b")

    inboxes = {
        "a@x": [stored(HOSTILE[0]), stored(HOSTILE[2]), stored("no token")],
        "b@x": [stored(HOSTILE[0]), stored(HOSTILE[0])],
    }
    copies, foreign = copies_by_token(inboxes)
    assert copies == {"m0000001": {"a@x": 1, "b@x": 2}, "m0000003": {"a@x": 1}}
    assert foreign == 1
