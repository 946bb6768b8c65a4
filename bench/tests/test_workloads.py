"""The generator is a pure function of (workload, seed, seconds)."""

import pytest

from workloads import (
    BACKSLASH_SLOT,
    HOSTILE_PERIOD,
    QUOTE_SLOT,
    WORKLOADS,
    make_inputs,
    stratified_counts,
    token_of,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    a = make_inputs(WORKLOADS[name], 7, 6)
    b = make_inputs(WORKLOADS[name], 7, 6)
    assert a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name):
    a = make_inputs(WORKLOADS[name], 7, 6)
    b = make_inputs(WORKLOADS[name], 8, 6)
    assert a.mails != b.mails


def test_tokens_unique_and_leading():
    inputs = make_inputs(WORKLOADS["steady"], 1, 6)
    tokens = [m.token for m in inputs.mails]
    assert len(set(tokens)) == len(tokens)
    assert all(token_of(m.subject) == m.token for m in inputs.mails)


def test_hostile_share_is_fixed():
    inputs = make_inputs(WORKLOADS["steady"], 3, 8)
    quoted = [m.index for m in inputs.mails if '"' in m.subject]
    backslashed = [m.index for m in inputs.mails if "\\" in m.body]
    assert quoted == [i for i in range(len(inputs.mails)) if i % HOSTILE_PERIOD == QUOTE_SLOT]
    assert backslashed == [i for i in range(len(inputs.mails)) if i % HOSTILE_PERIOD == BACKSLASH_SLOT]


def test_stratified_counts_follow_weights():
    counts = stratified_counts([0.5, 0.3, 0.2], 11)
    assert sum(counts) == 11
    assert counts == [6, 3, 2]


def test_churn_mutations_are_scheduled_and_consistent():
    inputs = make_inputs(WORKLOADS["churn"], 5, 10)
    ops = [m.op for m in inputs.mutations]
    assert ops.count("plan") == 2
    assert ops.count("insert") == ops.count("delete") == 10
    present = {u["email"] for u in inputs.users}
    for m in inputs.mutations:
        if m.op == "insert":
            assert m.email not in present
            present.add(m.email)
        elif m.op == "delete":
            assert m.email in present
            present.remove(m.email)


def _forwarded_fan_out(inputs):
    """Recipients per non-hostile mail, from the user table alone."""
    holders = {}
    for u in inputs.users:
        for kw in u["interests"].split(","):
            holders.setdefault(kw, set()).add(u["email"])
    out = []
    for m in inputs.mails:
        if m.index % HOSTILE_PERIOD in (QUOTE_SLOT, BACKSLASH_SLOT):
            continue
        text = f"{m.subject} {m.body}"
        out.append(len(set().union(*(who for kw, who in holders.items() if kw in text))))
    return sorted(out)


def test_forwarded_fan_out_is_the_same_on_every_seed():
    fan_outs = [_forwarded_fan_out(make_inputs(WORKLOADS["bigtable"], seed, 4)) for seed in (1, 2, 3)]
    assert fan_outs[0] == fan_outs[1] == fan_outs[2]
