"""One benchmark run of one workload, inside a process of its own.

``run.py`` starts this file as a child process, so every run begins from a
fresh interpreter and the program's tracebacks (its logging is left as the
``demo`` CLI leaves it) land in a captured stderr file, not in the metric
output.  The run:

1. starts the scenario ``SETUPS`` times (stopping all but the last) and takes
   the median start-to-ready time, scaled to the reference host speed;
2. holds a quiet window with no input and measures the process's idle CPU;
3. drives the load phase from one generator thread on a due-time schedule,
   open loop: every mail is timed from when it was due, not from when the
   generator got round to it;
4. waits until every mail has an outcome (a ``forward`` or an ``error`` in the
   event log), stops the scenario and judges every mail with the oracle.

Usage: ``python3 bench/session.py --workload W --seed N --seconds S
--trace 0|1 --out result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import queue
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from routebus.demo.config import AgentSpec, ContainerSpec, ScenarioConfig  # noqa: E402
from routebus.demo.runner import Scenario  # noqa: E402

from oracle import copies_by_token, judge, presence_table  # noqa: E402
from workloads import FROM_ADDR, WORKLOADS, Inputs, Mail, burst_count, make_inputs, token_of  # noqa: E402

SETUPS = 5
QUIET_S = 3.0
QUIET_SLICE_S = 0.25
# Lead time between handing the schedule to the generator and the first due
# time, so the first mails are not late by construction.
LEAD_S = 0.1
SCAN_INTERVAL_S = 0.05
# A mail without an outcome this long after it was due is given up on; a
# healthy mail needs the 2 s reply timeout plus a few ticks.
OUTCOME_GRACE_S = 10.0
BURST_DEADLINE_S = 60.0
PROBE_INTERVAL_S = 0.025
# The probe loop's mean CPU time on the host the bounds were set on (2 shared
# vCPUs, Python 3.11); cpu_ms_per_mail and setup_s are reported at this speed.
PROBE_REFERENCE_S = 50e-6


def scenario_config(inputs: Inputs) -> ScenarioConfig:
    """The shipped scenario defaults, with the workload's agents and users."""
    w = inputs.workload
    return ScenarioConfig(
        containers=[ContainerSpec("main", "static", [AgentSpec(a) for a in w.agents])],
        users=[dict(u) for u in inputs.users],
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Generator(threading.Thread):
    """The single load thread.  It takes batches of scheduled inputs and
    performs each at its due time, however far behind the program is."""

    def __init__(self, scenario: Scenario):
        super().__init__(name="bench-generator", daemon=True)
        self.scenario = scenario
        self.batches: queue.Queue = queue.Queue()
        self.injected: dict[str, tuple[float, float]] = {}  # token -> (due wall, injected wall)
        self.applied: list[tuple] = []  # (op, email, interests, before, after)
        self.lags: list[float] = []
        self.done = threading.Event()

    def submit(self, events: list, t0_mono: float, t0_wall: float) -> None:
        self.done.clear()
        self.batches.put((events, t0_mono, t0_wall))

    def close(self) -> None:
        self.batches.put(None)
        self.join(timeout=5.0)

    def run(self) -> None:
        while True:
            batch = self.batches.get()
            if batch is None:
                return
            events, t0_mono, t0_wall = batch
            for ev in events:
                delay = t0_mono + ev.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                before = time.time()
                self.lags.append(before - (t0_wall + ev.due))
                if isinstance(ev, Mail):
                    self.scenario.inject_mail(FROM_ADDR, ev.subject, ev.body)
                    self.injected[ev.token] = (t0_wall + ev.due, before)
                    continue
                if ev.op == "insert":
                    self.scenario.add_user(ev.email, ev.interests)
                elif ev.op == "delete":
                    self.scenario.remove_user(ev.email)
                else:
                    self.scenario.publish_plan_change(ev.email)
                self.applied.append((ev.op, ev.email, ev.interests, before, time.time()))
            self.done.set()


class SpeedProbe(threading.Thread):
    """Samples how fast the host runs Python right now.

    On a shared host the same work costs up to 1.6x more CPU time while other
    tenants are busy, for seconds to minutes at a time.  Every 25 ms this
    thread times a fixed loop with its own thread CPU clock; the mean over a
    phase scales that phase's CPU-bound figures (set-up time, CPU per mail) to
    the reference speed.  The probe's own CPU time is subtracted from the
    process's."""

    def __init__(self):
        super().__init__(name="bench-probe", daemon=True)
        self.samples: list[tuple[float, float, float]] = []  # (time, loop s, thread s since last)
        self.stop_event = threading.Event()

    def run(self) -> None:
        c_prev = time.thread_time()
        while not self.stop_event.wait(PROBE_INTERVAL_S):
            c0 = time.thread_time()
            acc = 0
            for i in range(400):
                acc += i * i % 7
            c1 = time.thread_time()
            self.samples.append((time.perf_counter(), c1 - c0, c1 - c_prev))
            c_prev = c1

    def close(self) -> None:
        self.stop_event.set()
        self.join(timeout=5.0)

    def loop_s(self, lo: float, hi: float) -> float:
        v = [s[1] for s in self.samples if lo <= s[0] <= hi]
        return statistics.fmean(v) if v else PROBE_REFERENCE_S

    def cpu_s(self, lo: float, hi: float) -> float:
        return sum(s[2] for s in self.samples if lo <= s[0] <= hi)


class Outcomes:
    """Reads the event log for each mail's outcome: the ``forward`` event
    (correlated by the token in its subject) or an ``error`` on the mail-poll
    or forward route (hostile content, no recipients)."""

    def __init__(self, scenario: Scenario):
        self.log = scenario.log
        self.poll_route = scenario.mail_route_id()
        self.forward_route = self.poll_route.rsplit(":", 1)[0] + ":forward"
        self.forwards: dict[str, float] = {}
        self.errors: dict[str, float] = {}
        self._seen = 0

    def scan(self) -> int:
        records = self.log.records()
        for r in records[self._seen :]:
            if r.event == "forward" and r.route_id == self.forward_route:
                token = token_of(r.detail.split(" subject=", 1)[-1])
                if token is not None:
                    self.forwards.setdefault(token, r.ts)
            elif r.event == "error" and r.route_id in (self.poll_route, self.forward_route):
                self.errors.setdefault(r.exchange_id, r.ts)
        self._seen = len(records)
        return len(self.forwards) + len(self.errors)

    def last_ts(self) -> float:
        return max([*self.forwards.values(), *self.errors.values()], default=0.0)

    def wait_for(self, count: int, deadline_mono: float) -> bool:
        while self.scan() < count:
            if time.monotonic() >= deadline_mono:
                return False
            time.sleep(SCAN_INTERVAL_S)
        return True


def timed_setups(config: ScenarioConfig, tracer) -> tuple[Scenario, list[float], bool, int]:
    """Start the scenario SETUPS times; all but the last are stopped again.
    Also returns the thread count just before the last start."""
    times = []
    ready = True
    scenario = None
    threads_before = 0
    for k in range(SETUPS):
        scenario = Scenario(config)
        threads_before = threading.active_count()
        t = time.perf_counter()
        scenario.start()
        times.append(time.perf_counter() - t)
        ready &= not scenario.log.events(event="warning", route_id="scenario")
        if k < SETUPS - 1:
            scenario.stop()
            if tracer is not None:
                tracer.forget_states()
    return scenario, times, ready, threads_before


def quiet_window(seconds: float) -> list[float]:
    """Process CPU as a percentage of one core, per slice of an idle window."""
    slices = []
    for _ in range(max(1, round(seconds / QUIET_SLICE_S))):
        c0, w0 = time.process_time(), time.perf_counter()
        time.sleep(QUIET_SLICE_S)
        slices.append(100.0 * (time.process_time() - c0) / (time.perf_counter() - w0))
    return slices


def load_phase(inputs: Inputs, seconds: float, gen: Generator, outcomes: Outcomes) -> dict:
    w = inputs.workload
    drains: list[tuple[int, float]] = []  # (mails, seconds from t0 to last outcome)
    complete = True
    if w.burst:
        for k in range(burst_count(seconds)):
            batch = [m for m in inputs.mails if m.burst == k]
            target = len(gen.injected) + len(batch)
            t0_mono, t0_wall = time.monotonic(), time.time()
            gen.submit(batch, t0_mono, t0_wall)
            complete &= outcomes.wait_for(target, t0_mono + BURST_DEADLINE_S)
            drains.append((len(batch), outcomes.last_ts() - t0_wall))
            if not complete:
                break
    else:
        events = sorted([*inputs.mails, *inputs.mutations], key=lambda e: e.due)
        t0_mono, t0_wall = time.monotonic() + LEAD_S, time.time() + LEAD_S
        gen.submit(events, t0_mono, t0_wall)
        last_due = max(m.due for m in inputs.mails)
        gen.done.wait(last_due + BURST_DEADLINE_S)
        complete = outcomes.wait_for(len(inputs.mails), t0_mono + last_due + OUTCOME_GRACE_S)
        drains.append((len(gen.injected), outcomes.last_ts() - t0_wall))
    gen.done.wait(BURST_DEADLINE_S)
    return {"drains": drains, "complete": complete}


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    if tracer is not None:
        from tracer import PER_LAYER

    inputs = make_inputs(WORKLOADS[workload], seed, seconds)
    config = scenario_config(inputs)
    if tracer is not None:
        tracer.install()
    probe = SpeedProbe()
    probe.start()
    s0 = time.perf_counter()
    scenario, setup_times, ready, threads_before = timed_setups(config, tracer)

    if tracer is not None:
        tracer.mark("quiet_start")
    q0 = time.perf_counter()
    idle = quiet_window(QUIET_S)
    q1 = time.perf_counter()
    # Set-up alone is too short for a steady probe mean (about five samples on
    # the two-agent shape), so its speed factor also covers the quiet window.
    setup_speed = PROBE_REFERENCE_S / probe.loop_s(s0, q1)
    if tracer is not None:
        tracer.mark("quiet_end")

    gen = Generator(scenario)
    gen.start()
    if tracer is not None:
        tracer.generator = gen
    outcomes = Outcomes(scenario)
    outcomes.scan()
    log_before = len(scenario.log.records())
    if tracer is not None:
        tracer.mark("load_start")
    cpu0, wall0, l0 = time.process_time(), time.time(), time.perf_counter()
    load = load_phase(inputs, seconds, gen, outcomes)
    outcomes.scan()
    cpu_s, wall_end, l1 = time.process_time() - cpu0, time.time(), time.perf_counter()
    if tracer is not None:
        tracer.mark("load_end")
    gen.close()
    cpu_s -= probe.cpu_s(l0, l1)
    speed = PROBE_REFERENCE_S / probe.loop_s(l0, l1)
    idle_pct = statistics.median(idle) - 100.0 * probe.cpu_s(q0, q1) / (q1 - q0)

    scenario.stop()
    threads_after = threading.active_count()
    probe.close()
    if tracer is not None:
        tracer.uninstall()

    # -- oracle --
    by_token = {m.token: m for m in inputs.mails}
    inboxes = {a: scenario.mail.folder(a, "inbox") for a in scenario.mail.accounts()}
    copies, foreign = copies_by_token(inboxes)
    presence = presence_table(inputs.users, gen.applied)
    verdicts = []
    for token, (_due, injected_at) in gen.injected.items():
        life = (injected_at, outcomes.forwards.get(token, wall_end))
        verdicts.append(judge(by_token[token], presence, life, copies.get(token, {})))
    strays = [t for t in copies if t not in gen.injected]
    attempted = len(gen.injected)
    failed = sum(not v.ok for v in verdicts)
    wrong = sum(v.wrong for v in verdicts)

    # Latency and drain are taken per burst (one group on the rate
    # workloads) and the best burst is reported.  A burst is repeated on the
    # same program, and other tenants' load on the host can only slow one
    # down, so the fastest burst is the steadiest estimate (as with the
    # minimum of repeated timings).
    by_burst: dict[int, list[float]] = {}
    for token, ts in outcomes.forwards.items():
        by_burst.setdefault(by_token[token].burst, []).append(1000.0 * (ts - gen.injected[token][0]))
    latencies_ms = [v for group in by_burst.values() for v in group]

    def best_burst(q: float) -> float:
        return min((percentile(g, q) for g in by_burst.values()), default=0.0)

    drain = max((n / s for n, s in load["drains"] if s > 0), default=0.0)
    beyond_p95 = min((len(g) - math.ceil(0.95 * len(g)) for g in by_burst.values()), default=0)

    def metric(value, unit, samples):
        return {"value": value, "unit": unit, "samples": samples}

    metrics = {
        "setup_s": metric(statistics.median(setup_times) * setup_speed, "s", len(setup_times)),
        "mail_latency_p50_ms": metric(best_burst(0.50), "ms", len(latencies_ms)),
        "mail_latency_p95_ms": metric(best_burst(0.95), "ms", len(latencies_ms)),
        "cpu_ms_per_mail": metric(1000.0 * cpu_s * speed / max(1, attempted), "ms", attempted),
        "drain_mails_per_s": metric(drain, "1/s", len(load["drains"])),
        "idle_cpu_pct": metric(idle_pct, "%", len(idle)),
        "mail_fail_ratio": metric(failed / max(1, attempted), "ratio", attempted),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "correct": ready and load["complete"] and wrong == 0 and not strays and foreign == 0,
        "metrics": metrics,
        "details": {
            "ready": ready,
            "all_outcomes": load["complete"],
            "forwarded": len(outcomes.forwards),
            "errored": len(outcomes.errors),
            "samples_beyond_p95": beyond_p95,
            "per_burst": [
                {"mails": n, "drain_s": d, "p50_ms": percentile(g, 0.5), "p95_ms": percentile(g, 0.95)}
                for (n, d), g in zip(load["drains"], by_burst.values())
            ],
            "stray_tokens": len(strays),
            "foreign_mails": foreign,
            "threads_before_start": threads_before,
            "threads_after_stop": threads_after,
            "setup_times_s": setup_times,
            "idle_slices_pct": idle,
            "cpu_ms_per_mail_unscaled": 1000.0 * cpu_s / max(1, attempted),
            "host_speed": speed,
            "host_speed_setup": setup_speed,
            "gen_lag_p95_ms": 1000.0 * percentile(gen.lags, 0.95) if gen.lags else 0.0,
        },
    }
    if tracer is not None:
        values = tracer.layer_metrics(
            scenario=scenario,
            mails=attempted,
            log_from=log_before,
            window=(wall0, wall_end),
            gen_lag_p95_ms=result["details"]["gen_lag_p95_ms"],
            threads_after_stop=threads_after - threads_before,
        )
        result["per_layer"] = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER if name in values
        }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the traced run's spans here (JSON lines, gzip)")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = run(args.workload, args.seed, args.seconds, tracer)
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
