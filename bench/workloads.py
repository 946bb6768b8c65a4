"""Workload shapes and the seeded input generator.

Everything a run feeds the program -- the user table, the mails and the
table mutations and plan changes -- is made here from the workload seed,
before the program starts.  The same (workload, seed, seconds) always gives
the same inputs.

Counts are stratified rather than drawn independently: the number of users
holding each interest keyword, and the number of mails naming it, follow the
keyword's Zipf weight exactly (largest-remainder rounding), and the seed only
decides which user or mail gets which slot.  Fan-out per mail therefore has the
same distribution on every seed, so runs on different seeds measure the same
load and differ only in arrangement.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

FROM_ADDR = "gen@bench.example"

# Hostile content, placed at fixed mail positions so every run carries the
# same share.  Today the ask-agents route splices subject and body into term
# text, so these mails are never forwarded.
HOSTILE_PERIOD = 20
QUOTE_SLOT = 3  # subject contains '"'
BACKSLASH_SLOT = 13  # body contains '\'
QUOTE_WORD = 'say "hello"'
BACKSLASH_WORD = "C:\\share\\notes"

# Share of mail keyword slots given to topic words no user follows, so that
# mails matching nobody occur at a fixed rate.  Today such a mail ends in an
# ``error`` (no recipients) rather than a drop.
UNFOLLOWED_SHARE = 0.15

FILLER = (
    "the a report notes draft review meeting update weekly summary about for "
    "with please see attached link thanks team follow plan numbers quarter "
    "figures reading list idea question answer memo agenda minutes slides"
).split()


@dataclass(frozen=True)
class Workload:
    name: str
    agents: tuple[str, ...]
    users: int
    keywords: int
    zipf_s: float  # 0 gives uniform keyword popularity
    interests_per_user: tuple[int, int]  # inclusive range
    keywords_per_mail: tuple[int, int]
    rate: float = 0.0  # mails/s on an open-loop schedule; 0 means bursts
    burst: int = 0  # mails per burst, all due at the burst's t0
    mutations_per_s: float = 0.0
    plan_change_every_s: float = 0.0


DEMO_AGENTS = ("alice", "bob")
WIDE_AGENTS = ("alice", "bob", "carol", "dave")

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # The demo shape at a low rate: latency is set by routing waits.
        Workload("steady", DEMO_AGENTS, 50, 40, 0.0, (1, 2), (1, 2), rate=25.0),
        # The demo shape with a backlog due at once: drain capacity.
        Workload("burst", DEMO_AGENTS, 50, 40, 0.0, (1, 2), (1, 2), burst=1500),
        # A wide table and skewed interests: read-heavy agent, table and codec work.
        Workload("bigtable", WIDE_AGENTS, 2000, 400, 1.0, (1, 3), (1, 1), rate=25.0),
        # bigtable plus writes: account queries and poller suspension beside reads.
        # Runs by name only; BENCHMARK.json leaves it out because its failure
        # count depends on a race in the program (see README.md).
        Workload(
            "churn", WIDE_AGENTS, 2000, 400, 1.0, (1, 3), (1, 1), rate=25.0,
            mutations_per_s=2.0, plan_change_every_s=5.0,
        ),
    )
}

# One burst per this many seconds of run time; each is drained before the
# next is due.  A fixed count keeps the work per run the same on any host.
BURST_EVERY_S = 1.5


@dataclass(frozen=True)
class Mail:
    index: int
    token: str
    subject: str
    body: str
    due: float  # seconds after the load phase's t0; bursts use their own t0
    burst: int = -1  # burst number, -1 on rate workloads


@dataclass(frozen=True)
class Mutation:
    due: float
    op: str  # "insert" | "delete" | "plan"
    email: str = ""  # the user, or for "plan" the account whose plan changed
    interests: str = ""


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    seed: int
    users: tuple[dict, ...]
    mails: tuple[Mail, ...]
    mutations: tuple[Mutation, ...]


def token_for(index: int) -> str:
    """The correlation token that starts every generated subject."""
    return f"m{index:07d}"


def token_of(subject: str) -> Optional[str]:
    """The token at the start of a subject, or None for a foreign mail."""
    head = subject.split(" ", 1)[0]
    if len(head) == 8 and head[0] == "m" and head[1:].isdigit():
        return head
    return None


def _weights(n: int, s: float) -> list[float]:
    raw = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def stratified_counts(weights: list[float], total: int) -> list[int]:
    """Split ``total`` slots over ``weights`` by largest remainder."""
    exact = [w * total for w in weights]
    counts = [int(math.floor(e)) for e in exact]
    short = total - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - exact[i], i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def _keyword_names(rng: random.Random, n: int) -> list[str]:
    # Letters only, one length, a prefix no filler word has: no keyword is a
    # substring of another keyword, a filler word or a token.
    letters = "abcdefghijklmnopqrstuvwxyz"
    names: set[str] = set()
    while len(names) < n:
        names.add("zq" + "".join(rng.choice(letters) for _ in range(4)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def _pool(names: list[str], weights: list[float], total: int) -> list[str]:
    """``total`` keyword slots, each keyword repeated per its stratified count."""
    return [names[i] for i, c in enumerate(stratified_counts(weights, total)) for _ in range(c)]


def _spaced(total: int, count: int) -> set[int]:
    """``count`` evenly spaced positions out of ``range(total)``."""
    return {int((k + 0.5) * total / count) for k in range(count)}


def _deal(pool: list[str], sizes: list[int]) -> list[list[str]]:
    """Deal pooled keywords into groups of the given sizes, no repeats in a
    group; a keyword a group already holds goes to the next group instead."""
    queue = deque(pool)
    groups: list[list[str]] = []
    for size in sizes:
        group: list[str] = []
        skipped: list[str] = []
        while len(group) < size and queue:
            kw = queue.popleft()
            (skipped if kw in group else group).append(kw)
        queue.extendleft(reversed(skipped))
        groups.append(group)
    return groups


def _sizes(rng: random.Random, n: int, lo_hi: tuple[int, int]) -> list[int]:
    lo, hi = lo_hi
    span = hi - lo + 1
    sizes = [lo + (i % span) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def _users(rng: random.Random, w: Workload, names: list[str], weights: list[float], n: int, first: int):
    sizes = _sizes(rng, n, w.interests_per_user)
    pool = _pool(names, weights, sum(sizes))
    rng.shuffle(pool)
    groups = _deal(pool, sizes)
    return [
        {"email": f"u{first + i:05d}@corp.example", "interests": ",".join(g)}
        for i, g in enumerate(groups)
    ]


def _text(rng: random.Random, keywords: list[str], words: int) -> list[str]:
    out = [rng.choice(FILLER) for _ in range(words)]
    for kw in keywords:
        out.insert(rng.randrange(len(out) + 1), kw)
    return out


def burst_count(seconds: float) -> int:
    return max(1, round(seconds / BURST_EVERY_S))


def mail_count(w: Workload, seconds: float) -> int:
    if w.burst:
        return w.burst * burst_count(seconds)
    return max(1, int(round(w.rate * seconds)))


def make_inputs(w: Workload, seed: int, seconds: float) -> Inputs:
    rng = random.Random(f"{w.name}:{seed}")
    unfollowed_count = max(1, w.keywords // 4)
    all_names = _keyword_names(rng, w.keywords + unfollowed_count)
    names, unfollowed = all_names[: w.keywords], all_names[w.keywords :]
    weights = _weights(w.keywords, w.zipf_s)
    users = _users(rng, w, names, weights, w.users, 0)

    n = mail_count(w, seconds)
    sizes = _sizes(rng, n, w.keywords_per_mail)
    slots = sum(sizes)
    off_topic = round(slots * UNFOLLOWED_SHARE)
    pool = _pool(names, weights, slots - off_topic)
    pool += [unfollowed[i % unfollowed_count] for i in range(off_topic)]
    # Hostile mails are never forwarded, so they take an evenly spaced share
    # of the popularity-ordered pool: the forwarded mails then carry the same
    # keyword counts, and so the same fan-out, on every seed.
    hostile = [i for i in range(n) if i % HOSTILE_PERIOD in (QUOTE_SLOT, BACKSLASH_SLOT)]
    plain = [i for i in range(n) if i % HOSTILE_PERIOD not in (QUOTE_SLOT, BACKSLASH_SLOT)]
    picks = _spaced(len(pool), sum(sizes[i] for i in hostile))
    groups: list[list[str]] = [[] for _ in range(n)]
    for idx, part in (
        (hostile, [kw for j, kw in enumerate(pool) if j in picks]),
        (plain, [kw for j, kw in enumerate(pool) if j not in picks]),
    ):
        rng.shuffle(part)
        for i, group in zip(idx, _deal(part, [sizes[i] for i in idx])):
            groups[i] = group
    held = [kw for u in users for kw in u["interests"].split(",") if kw]
    held_set = set(held)

    mails = []
    for i, group in enumerate(groups):
        slot = i % HOSTILE_PERIOD
        if slot in (QUOTE_SLOT, BACKSLASH_SLOT) and held_set.isdisjoint(group):
            # A hostile mail that matched nobody would pass by sending
            # nothing; give it a held keyword so the defect always shows.
            group = group + [rng.choice(held)]
        words = _text(rng, group, 6)
        half = rng.randrange(1, len(words))
        subject_words, body_words = words[:half], words[half:]
        if slot == QUOTE_SLOT:
            subject_words.append(QUOTE_WORD)
        if slot == BACKSLASH_SLOT:
            body_words.append(BACKSLASH_WORD)
        token = token_for(i)
        if w.burst:
            due, burst = 0.0, i // w.burst
        else:
            due, burst = i / w.rate, -1
        mails.append(
            Mail(i, token, token + " " + " ".join(subject_words), " ".join(body_words), due, burst)
        )

    mutations = _mutations(rng, w, names, weights, users, seconds)
    return Inputs(w, seed, tuple(users), tuple(mails), tuple(mutations))


def _mutations(rng, w: Workload, names, weights, users, seconds) -> list[Mutation]:
    out: list[Mutation] = []
    if w.mutations_per_s:
        count = int(w.mutations_per_s * seconds)
        fresh = iter(_users(rng, w, names, weights, count, w.users))
        present = [u["email"] for u in users]
        for k in range(count):
            due = (k + 0.5) / w.mutations_per_s
            if k % 2 == 0:
                user = next(fresh)
                present.append(user["email"])
                out.append(Mutation(due, "insert", user["email"], user["interests"]))
            else:
                email = present.pop(rng.randrange(len(present)))
                out.append(Mutation(due, "delete", email))
    if w.plan_change_every_s:
        t = w.plan_change_every_s / 2
        k = 0
        while t < seconds:
            out.append(Mutation(t, "plan", f"plan-{k}"))
            t += w.plan_change_every_s
            k += 1
    out.sort(key=lambda m: m.due)
    return out
