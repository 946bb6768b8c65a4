"""The relevance behaviour set for the email-forwarding scenario.

On startup an agent fetches the account list through a synchronous action and
registers itself; membership percepts keep its view of the active agents
fresh, and ``account_added``/``account_removed`` percepts are applied to its
account list; an ``achieve check_relevance(...)`` request makes it match its
allocated users' interest keywords against the mail and reply with
``relevant(Id, [emails...])`` -- an empty list when nothing matches, so the
collecting route never has to rely on its timeout alone.  The keywords come
from a view the agent builds once per change of its membership or account
list, so a request costs a lookup of each window of the mail text, one per
distinct keyword length, or, on a text longer than the view's cutoff, a scan
of the distinct keywords; never a read of the table.
Every hook writes the agent's memory itself, and the container runs a rule's
effects before the next rule fires, so a request later in the same cycle is
answered from the membership and accounts that earlier events stored.
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

# A lookup of one window of the mail text in the view's dict costs about 7/3
# of an ``in`` test of one keyword against the text (140 against 60 ns).
WINDOW_COST, KEYWORD_COST = 7, 3


def _fetch_accounts() -> PerformAction:
    def store_accounts(agent: AgentState, result) -> None:
        accounts = result.args[0]
        agent.memory["accounts"] = sorted(
            {el.text if isinstance(el, Str) else render_term(el) for el in accounts.elements}
        )

    return PerformAction(
        ActionTerm(Compound("get_email_accounts", (Var("Accounts"),))),
        Sync(),
        on_result=store_accounts,
    )


def _relevance_view(
    agent: AgentState, tables: TableStore
) -> tuple[dict[str, tuple[Str, ...]], tuple[int, ...], float]:
    """Each interest keyword of this agent's allocated users, mapped to their
    emails' terms in reply order; the distinct keyword lengths; and the
    longest mail text whose windows of those lengths cost no more to look up
    than a scan of every keyword.

    Built on the first call after ``memory["agents"]`` or ``memory["accounts"]``
    changes.  Both lists are replaced, never edited, so an identity check finds
    the change.  Interests are read from the table once per build.
    """
    agents = agent.memory.get("agents")
    accounts = agent.memory.get("accounts")
    built = agent.memory.get("relevance_view")
    if built is not None and built[0] is agents and built[1] is accounts:
        return built[2]
    terms: dict[str, list[Str]] = {}
    if agents and agent.full_name in agents:
        interests = {row["email"]: row.get("interests", "") for row in tables.rows("users")}
        # The allocation lists each agent's emails sorted, which is reply order.
        for email in compute_allocation(agents, accounts or [])[agent.full_name]:
            term = Str(email)
            keywords = {k.strip().lower() for k in interests.get(email, "").split(",")}
            for keyword in keywords - {""}:
                terms.setdefault(keyword, []).append(term)
    view = {keyword: tuple(emails) for keyword, emails in terms.items()}
    lengths = tuple({len(keyword) for keyword in view})
    # A text of n characters has at most len(lengths) * (n + 1) - sum(lengths)
    # windows; up to the cutoff they cost no more than the keyword scan.
    cutoff = (
        (len(view) * KEYWORD_COST / WINDOW_COST + sum(lengths)) / len(lengths) - 1 if view else 0
    )
    agent.memory["relevance_view"] = (agents, accounts, (view, lengths, cutoff))
    return view, lengths, cutoff


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
        agent.memory["agents"] = names
        return []

    def on_account_change(agent, literal):
        # The percept carries the change; only an agent with no list yet
        # fetches one.
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
        agent.memory.setdefault("plan_changes", []).append(render_term(literal))
        return []

    def on_check_relevance(agent, msg):
        id_term, _from_term, subject, body = msg.content.args
        haystack = " ".join(
            t.text if isinstance(t, Str) else render_term(t) for t in (subject, body)
        ).lower()
        view, lengths, cutoff = _relevance_view(agent, tables)
        if len(haystack) <= cutoff:
            matched = {
                window
                for length in lengths
                for i in range(len(haystack) - length + 1)
                if (window := haystack[i : i + length]) in view
            }
        else:
            matched = [keyword for keyword in view if keyword in haystack]
        if len(matched) == 1:
            (keyword,) = matched
            emails = view[keyword]
        else:
            union = {term.text: term for keyword in matched for term in view[keyword]}
            emails = tuple(union[email] for email in sorted(union))
        reply = Compound("relevant", (id_term, ListTerm(emails)))
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
