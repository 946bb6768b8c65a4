"""The correctness oracle: which users each mail should reach, and whether it did.

A mail's reference recipients are the users with an interest keyword that
occurs in its subject and body, matched as the relevance behaviour matches
them (case-folded substring of ``subject + " " + body``).  The agents'
allocation partitions the users, so the union of their nominations is exactly
this set.

A mail passes when every reference recipient holds exactly one copy and no
one else holds any.  While the user table changes (the ``churn`` workload) the
reference set is a range: the copies must reach every matching user present
for the mail's whole life (injection to outcome) and may reach only matching
users present at some point during it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from workloads import Mail, token_of


def matches(interests: str, subject: str, body: str) -> bool:
    haystack = f"{subject} {body}".lower()
    keywords = (k.strip().lower() for k in interests.split(","))
    return any(k and k in haystack for k in keywords)


@dataclass
class Presence:
    """When one user was in the table.  Each bound is a (before, after) pair
    of wall times around the mutation call, since the exact instant inside it
    is unknown."""

    interests: str
    added: tuple[float, float] = (-math.inf, -math.inf)
    removed: tuple[float, float] = (math.inf, math.inf)

    def whole_life(self, start: float, end: float) -> bool:
        return self.added[1] <= start and self.removed[0] >= end

    def some_of_life(self, start: float, end: float) -> bool:
        return self.added[0] <= end and self.removed[1] >= start


def presence_table(users: Iterable[Mapping[str, str]], mutations: Iterable[tuple]) -> dict[str, Presence]:
    """Initial users plus the applied ``(op, email, interests, before, after)``
    mutations, in the order they were applied."""
    table = {u["email"]: Presence(u["interests"]) for u in users}
    for op, email, interests, before, after in mutations:
        if op == "insert":
            table[email] = Presence(interests, added=(before, after))
        elif op == "delete":
            table[email].removed = (before, after)
    return table


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool  # a copy to someone outside the allowed set, or a duplicate


def judge(
    mail: Mail,
    presence: Mapping[str, Presence],
    life: tuple[float, float],
    copies: Mapping[str, int],
) -> Verdict:
    start, end = life
    matching = {e: p for e, p in presence.items() if matches(p.interests, mail.subject, mail.body)}
    required = {e for e, p in matching.items() if p.whole_life(start, end)}
    allowed = {e for e, p in matching.items() if p.some_of_life(start, end)}
    wrong = any(n != 1 for n in copies.values()) or not set(copies) <= allowed
    ok = not wrong and required <= set(copies)
    return Verdict(ok, wrong)


def copies_by_token(inboxes: Mapping[str, Iterable]) -> tuple[dict[str, dict[str, int]], int]:
    """Count forwarded copies per (token, recipient) from ``{account: mails}``;
    also returns how many stored mails carry no generated token."""
    out: dict[str, dict[str, int]] = {}
    foreign = 0
    for account, mails in inboxes.items():
        for m in mails:
            token = token_of(m.subject)
            if token is None:
                foreign += 1
                continue
            per = out.setdefault(token, {})
            per[account] = per.get(account, 0) + 1
    return out, foreign
