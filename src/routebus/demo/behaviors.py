"""The relevance behaviour set for the email-forwarding scenario.

On startup an agent fetches the account list through a synchronous action and
registers itself; membership percepts keep its view of the active agents
fresh, and ``account_added``/``account_removed`` percepts are applied to its
account list; an ``achieve check_relevance(...)`` request makes it match its
allocated users' interest keywords against the mail and reply with
``relevant(Id, [emails...])`` -- an empty list when nothing matches, so the
collecting route never has to rely on its timeout alone.
"""

from __future__ import annotations

import logging

from ..agents import (
    AgentState,
    Async,
    BehaviorRule,
    OnMessage,
    OnPercept,
    OnStartup,
    PerformAction,
    SendMessage,
    Sync,
    UpdateInternal,
)
from ..services import TableStore
from ..terms import (
    ActionTerm,
    Atom,
    Compound,
    ListTerm,
    Str,
    Var,
    args_of,
    functor_of,
    render_term,
)
from .allocation import compute_allocation

logger = logging.getLogger(__name__)


def _fetch_accounts() -> PerformAction:
    def store_accounts(agent: AgentState, result) -> None:
        accounts = result.args[0]
        agent.memory["accounts"] = sorted(
            el.text if isinstance(el, Str) else render_term(el) for el in accounts.elements
        )

    return PerformAction(
        ActionTerm(Compound("get_email_accounts", (Var("Accounts"),))),
        Sync(),
        on_result=store_accounts,
    )


def assigned_accounts(agent: AgentState) -> list[str]:
    """This agent's slice of the current allocation; empty until views settle."""
    agents = agent.memory.get("agents") or []
    accounts = agent.memory.get("accounts") or []
    if agent.full_name not in agents:
        return []
    return list(compute_allocation(agents, accounts)[agent.full_name])


def allocation_view(agent: AgentState):
    """The full allocation as this agent computes it, or None before readiness."""
    agents = agent.memory.get("agents") or []
    accounts = agent.memory.get("accounts")
    if not agents or accounts is None:
        return None
    return {name: list(emails) for name, emails in compute_allocation(agents, accounts).items()}


def relevance_behaviors(tables: TableStore) -> list[BehaviorRule]:
    def on_startup(agent, _payload):
        return [_fetch_accounts(), PerformAction(ActionTerm(Atom("register")), Async())]

    def on_agents(agent, literal):
        members = args_of(literal)[0]
        names = sorted(
            el.text if isinstance(el, Str) else render_term(el) for el in members.elements
        )
        return [UpdateInternal("agents", names)]

    def on_account_change(agent, literal):
        # The percept carries the change, so it is applied to the stored list
        # at once, not deferred as an effect: a second change or a relevance
        # request later in the same cycle sees it.  Only an agent with no list
        # yet fetches one.
        accounts = agent.memory.get("accounts")
        if accounts is None:
            return [_fetch_accounts()]
        arg = args_of(literal)[0]
        email = arg.text if isinstance(arg, Str) else render_term(arg)
        accounts = set(accounts) - {email}
        if functor_of(literal) == "account_added":
            accounts.add(email)
        agent.memory["accounts"] = sorted(accounts)
        return []

    def on_plans_changed(agent, literal):
        seen = list(agent.memory.get("plan_changes", []))
        seen.append(render_term(literal))
        return [UpdateInternal("plan_changes", seen)]

    def on_check_relevance(agent, msg):
        id_term, _from_term, subject, body = msg.content.args
        haystack = " ".join(
            t.text if isinstance(t, Str) else render_term(t) for t in (subject, body)
        ).lower()
        interests = {
            row["email"]: row.get("interests", "") for row in tables.rows("users")
        }
        matched = []
        for email in assigned_accounts(agent):
            keywords = [k.strip().lower() for k in interests.get(email, "").split(",") if k.strip()]
            if any(keyword in haystack for keyword in keywords):
                matched.append(email)
        reply = Compound(
            "relevant", (id_term, ListTerm(tuple(Str(e) for e in sorted(matched))))
        )
        return [SendMessage("tell", "router", reply)]

    return [
        BehaviorRule(OnStartup(), on_startup, "startup"),
        BehaviorRule(OnPercept("agents", 1), on_agents, "track-members"),
        BehaviorRule(OnPercept("account_added", 1), on_account_change, "account-added"),
        BehaviorRule(OnPercept("account_removed", 1), on_account_change, "account-removed"),
        BehaviorRule(OnPercept("plans_changed", 1), on_plans_changed, "plans-changed"),
        BehaviorRule(OnMessage("achieve", "check_relevance"), on_check_relevance, "relevance"),
    ]


BEHAVIOR_SETS = {"relevance": relevance_behaviors}
