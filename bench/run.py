"""routebus mail-pipeline benchmark.

    python3 bench/run.py --workload steady --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  Each run starts ``session.py`` as a
fresh child process against ``src/``, captures the child's stderr (the
program's tracebacks) under ``bench/out/``, prints every metric with its unit
and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the workload twice on the same seed, untraced and then
traced, and reports the per-layer metrics plus the tracing overhead (traced
over untraced CPU per mail).  ``--workload all`` runs every workload in turn.
The exit code is 0 only when every child finished and wrote a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# Every run must end within 180 s; leave room for start-up and reporting.
RUN_BUDGET_S = 165.0

END_TO_END = [
    "setup_s",
    "mail_latency_p50_ms",
    "mail_latency_p95_ms",
    "cpu_ms_per_mail",
    "drain_mails_per_s",
    "mail_fail_ratio",
    "peak_rss_mb",
]


class RunError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = OUT / f"{stem}.json"
    err = OUT / f"{stem}.stderr"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(BENCH / "session.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"{stem}.spans.jsonl.gz")]
    with open(err, "wb") as err_fh:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=err_fh, stderr=err_fh)
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if code != 0 or not out.exists():
        raise RunError(f"{stem}: child exited with {code}; see {err}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["stderr_tracebacks"] = err.read_text(encoding="utf-8", errors="replace").count("Traceback")
    return result


def _machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = _child(workload, seed, seconds, 0, deadline)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": _machine(),
        "correct": plain["correct"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "untraced": plain,
    }
    if not trace:
        report["metrics"] = {name: plain["metrics"][name] for name in END_TO_END}
        return report
    traced = _child(workload, seed, seconds, 1, deadline)
    layers = dict(traced["per_layer"])
    base = plain["metrics"]["cpu_ms_per_mail"]["value"]
    overhead = 100.0 * (traced["metrics"]["cpu_ms_per_mail"]["value"] / base - 1.0)
    layers["bench.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
    layers["idle_cpu_pct"] = plain["metrics"]["idle_cpu_pct"]
    report.update(
        correct=plain["correct"] and traced["correct"],
        attempted=traced["attempted"],
        failed=traced["failed"],
        traced=traced,
        metrics={name: dict(m, samples=traced["attempted"]) for name, m in layers.items()},
    )
    return report


def _print_table(report: dict) -> None:
    print(
        f"# {report['workload']} seed={report['seed']} seconds={report['seconds']} "
        f"trace={report['trace']}: attempted={report['attempted']} failed={report['failed']} "
        f"correct={report['correct']}"
    )
    rows = list(report["metrics"].items())
    if not report["trace"]:
        rows.append(("idle_cpu_pct (no bound)", report["untraced"]["metrics"]["idle_cpu_pct"]))
    for name, m in rows:
        print(f"  {name:<46} {m['value']:>14.4f} {m['unit']:<10} n={m['samples']}")


def _contract_line(report: dict) -> dict:
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in report["metrics"].items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="routebus mail-pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn a termination request into SystemExit so the running child is
    # killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "routebus").is_dir():
        print(f"bench: no routebus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            report = run_one(name, args.seed, args.seconds, args.trace)
        except RunError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        stem = f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        (OUT / stem).write_text(json.dumps(report, indent=1), encoding="utf-8")
        _print_table(report)
        lines[name] = _contract_line(report)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
