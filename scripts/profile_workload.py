#!/usr/bin/env python3
"""Profile one benchmark workload in process, every thread included.

    python3 scripts/profile_workload.py bigtable --seed 3 --mails 100 [--top 25]

Makes the workload's inputs with ``bench/workloads.py`` (users, the first
``--mails`` mails and the table changes due before the last of them), starts
the scenario shape the benchmark uses, hands the inputs to the benchmark's
generator thread, which performs each at its due time, and waits until every
mail has an outcome.

Plain ``cProfile`` sees only the thread that enables it, and the program's
work runs on each engine's loop thread (``<engine>-loop``), agent cycles
included; there are no agent threads.  So ``threading.setprofile`` gives each
thread the scenario starts a ``cProfile.Profile`` of its own; the profiles are
merged when the scenario has stopped.  Each profiler reads its thread's CPU clock,
so time a thread spends blocked in a wait is not counted.  The merged
profile covers the whole scenario, start-up included; the CPU time per mail
covers the mails alone and is measured with the profilers on, so it reads
several times higher than the benchmark's.  After the table by self time,
the callers of the three functions with the most self time are listed, then
one line per thread with its name and its profiled CPU seconds, then the
summary: the exchange copies (calls of ``Exchange.copy``) and aggregate
offers (calls of ``AggregateState.offer``) per mail, then the function calls
and the calls of the builtin ``isinstance`` per mail, then the calls of
``terms.quote`` per mail (made by the sort key of a reply union whose texts
quoting could reorder, and by rendering text; the bench tracer cannot see
them), then the event records per mail (the records the scenario's ``EventLog`` gained from the first input
to the last outcome), then the objects the garbage collector tracks, gained
per mail over the same span (``len(gc.get_objects())`` after
``gc.collect()``), then the mails the store holds in every account's inbox
after the run, per mail (distinct stored objects, and inbox entries), then
the mail polls per mail (calls of ``MailStore.poll``; a poll takes at most
``MAIL_POLL_LIMIT`` mails), and last the loop turns per mail: route turns are
the calls of ``RouteService._step`` and agent turns those of
``AgentContainer._turn``.  Every count but the event log's, the collector's
and the store's is read from the merged profile.
Python 3.12 moved ``cProfile`` onto the process-wide ``sys.monitoring``, where
one profiler per thread cannot be enabled, so the script needs 3.11 or older.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import math
import pstats
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from routebus import terms  # noqa: E402
from routebus.demo.runner import Scenario  # noqa: E402
from routebus.messages import Exchange  # noqa: E402
from routebus.routing import AggregateState  # noqa: E402
from routebus.services import MailStore  # noqa: E402

from session import Generator, Outcomes, scenario_config  # noqa: E402
from workloads import BURST_EVERY_S, WORKLOADS, make_inputs  # noqa: E402

OUTCOME_TIMEOUT_S = 60.0

# The merged profile's key of the builtin ``isinstance``.
ISINSTANCE = ("~", 0, "<built-in method builtins.isinstance>")

# Each kind of loop turn, by the file and name of the function it runs.
TURNS = {"route": ("routing.py", "_step"), "agent": ("agents.py", "_turn")}


def inputs_for(name: str, seed: int, mails: int):
    """The workload's inputs, cut to the first ``mails`` mails."""
    w = WORKLOADS[name]
    if w.burst:
        seconds = BURST_EVERY_S * math.ceil(mails / w.burst)
    else:
        seconds = mails / w.rate
    inputs = make_inputs(w, seed, seconds)
    chosen = inputs.mails[:mails]
    last_due = chosen[-1].due
    changes = [m for m in inputs.mutations if m.due <= last_due]
    return inputs, sorted([*chosen, *changes], key=lambda e: e.due), len(chosen)


def turn_calls(stats: pstats.Stats) -> dict[str, int]:
    """The calls of each kind of loop turn in the merged profile."""
    counts = dict.fromkeys(TURNS, 0)
    for (path, _line, func), (_primitive, calls, *_times) in stats.stats.items():
        for kind, (file, name) in TURNS.items():
            if func == name and Path(path).name == file:
                counts[kind] += calls
    return counts


def code_calls(stats: pstats.Stats, fn) -> int:
    """The calls of one function in the merged profile, found by its code
    object, as methods of one module may share a name."""
    entry = stats.stats.get(cProfile.label(fn.__code__))
    return entry[1] if entry else 0


def inbox_counts(store: MailStore) -> tuple[int, int]:
    """The distinct mails in every account's inbox, and the inbox entries."""
    inboxes = [store.folder(account, "inbox") for account in store.accounts()]
    return len({id(mail) for inbox in inboxes for mail in inbox}), sum(map(len, inboxes))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mails", type=int, default=100)
    ap.add_argument("--top", type=int, default=25, help="functions to print, by self time")
    args = ap.parse_args(argv)
    if sys.version_info >= (3, 12):
        print("profile_workload: needs Python 3.11 or older (see the module docstring)", file=sys.stderr)
        return 2
    if args.mails < 1:
        ap.error("--mails must be at least 1")

    inputs, events, mails = inputs_for(args.workload, args.seed, args.mails)
    profiles: list[tuple[str, cProfile.Profile]] = []

    def start_profile(*_ignored) -> None:
        # Runs at a new thread's first event; the profiler then replaces this hook.
        profile = cProfile.Profile(time.thread_time)
        profiles.append((threading.current_thread().name, profile))
        profile.enable()

    scenario = Scenario(scenario_config(inputs))
    threading.setprofile(start_profile)
    try:
        scenario.start()
        outcomes = Outcomes(scenario)
        before = outcomes.scan()
        generator = Generator(scenario)
        generator.start()
        log_from = len(scenario.log.records())
        gc.collect()
        tracked_from = len(gc.get_objects())
        cpu0, t0 = time.process_time(), time.monotonic()
        generator.submit(events, t0, time.time())
        done = outcomes.wait_for(before + mails, t0 + events[-1].due + OUTCOME_TIMEOUT_S)
        cpu_ms = 1000.0 * (time.process_time() - cpu0)
        records = len(scenario.log.records()) - log_from
        gc.collect()
        tracked = len(gc.get_objects()) - tracked_from
        generator.close()
    finally:
        scenario.stop()
        threading.setprofile(None)

    stats = pstats.Stats(*(profile for _, profile in profiles))
    stats.sort_stats("tottime").print_stats(args.top)
    stats.print_callers(3)
    for name, profile in profiles:
        print(f"thread {name}: {pstats.Stats(profile).total_tt:.3f} CPU s")
    print(
        f"{args.workload} seed={args.seed}: {mails} mails, {len(profiles)} threads profiled, "
        f"{cpu_ms / mails:.2f} CPU ms per mail (profiled)"
    )
    copies, offers = code_calls(stats, Exchange.copy), code_calls(stats, AggregateState.offer)
    print(
        f"exchange copies per mail: {copies / mails:.3f} ({copies} Exchange.copy calls), "
        f"aggregate offers per mail: {offers / mails:.3f} ({offers} AggregateState.offer calls)"
    )
    calls, isinstances = stats.total_calls, stats.stats.get(ISINSTANCE, (0, 0))[1]
    print(
        f"function calls per mail: {calls / mails:.1f} ({calls} calls), "
        f"isinstance calls per mail: {isinstances / mails:.1f} ({isinstances} isinstance calls)"
    )
    quotes = code_calls(stats, terms.quote)
    print(f"sort-key quotes per mail: {quotes / mails:.1f} ({quotes} terms.quote calls)")
    print(f"event records per mail: {records / mails:.3f} ({records} records)")
    print(f"gc-tracked objects per mail: {tracked / mails:.2f} ({tracked} objects)")
    stored, entries = inbox_counts(scenario.mail)
    print(
        f"stored mails per mail: {stored / mails:.3f} ({stored} distinct mails), "
        f"inbox entries per mail: {entries / mails:.3f} ({entries} entries)"
    )
    polls = code_calls(stats, MailStore.poll)
    print(f"mail polls per mail: {polls / mails:.3f} ({polls} MailStore.poll calls)")
    turns = turn_calls(stats)
    print(
        f"loop turns per mail: {turns['route'] / mails:.3f} route "
        f"({turns['route']} RouteService._step calls), {turns['agent'] / mails:.3f} agent "
        f"({turns['agent']} AgentContainer._turn calls)"
    )
    if not done:
        print("profile_workload: not every mail reached an outcome", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
