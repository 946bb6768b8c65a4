"""Command-line scenario runner.

Subcommands: ``run`` executes a scenario to quiescence (or a duration cap)
and writes the event log; ``inject-mail`` appends a mail record to the
configured fixtures file for the next run; ``dump-allocations`` prints the
account allocation computed offline from the config; ``dump-log`` pretty-
prints an event-log file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .allocation import compute_allocation
from .config import ConfigError, ScenarioConfig, append_record
from .runner import run_scenario


def _load_config(args) -> ScenarioConfig:
    if args.config:
        config = ScenarioConfig.load(args.config)
    else:
        config = ScenarioConfig.default()
    if getattr(args, "duration_ms", None):
        config.duration_ms = args.duration_ms
    if getattr(args, "enable_bridge", False):
        config.route_sets.add("inter_container")
    return config


def cmd_run(args) -> int:
    config = _load_config(args)
    return run_scenario(config, args.log)


def cmd_inject_mail(args) -> int:
    if not args.config:
        print("inject-mail needs --config pointing at a scenario with a mail fixtures file", file=sys.stderr)
        return 1
    config = ScenarioConfig.load(args.config)
    if config.mail_file is None:
        print("the scenario config has no [mail] file entry", file=sys.stderr)
        return 1
    record = {
        "to": args.to,
        "from": getattr(args, "from"),
        "subject": args.subject,
        "body": args.body,
    }
    append_record(config.mail_file, record)
    print(f"appended mail record to {config.mail_file}")
    return 0


def cmd_dump_allocations(args) -> int:
    config = _load_config(args)
    agents = [
        f"{spec.name}__{agent.local_name}"
        for spec in config.containers
        for agent in spec.agents
    ]
    accounts = [u["email"] for u in config.users]
    if not agents:
        print("no agents configured")
        return 1
    for agent, assigned in compute_allocation(agents, accounts).items():
        print(f"{agent}: {','.join(assigned)}")
    if any(spec.id_mode == "dynamic" for spec in config.containers):
        print("# note: dynamic containers shown under their config names", file=sys.stderr)
    return 0


def cmd_dump_log(args) -> int:
    path = Path(args.log)
    if not path.exists():
        print(f"no log file at {path}", file=sys.stderr)
        return 1
    sys.stdout.write(path.read_text(encoding="utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="demo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario")
    run_p.add_argument("--config", help="scenario config file (built-in default when omitted)")
    run_p.add_argument("--duration-ms", type=int, dest="duration_ms", help="hard stop after N ms")
    run_p.add_argument("--log", help="write the event log to this path")
    run_p.add_argument("--enable-bridge", action="store_true", dest="enable_bridge")
    run_p.set_defaults(fn=cmd_run)

    inject_p = sub.add_parser("inject-mail", help="append a mail fixture record")
    inject_p.add_argument("--config", help="scenario config file")
    inject_p.add_argument("--to", required=True)
    inject_p.add_argument("--from", required=True)
    inject_p.add_argument("--subject", required=True)
    inject_p.add_argument("--body", required=True)
    inject_p.set_defaults(fn=cmd_inject_mail)

    dump_a = sub.add_parser("dump-allocations", help="print the offline account allocation")
    dump_a.add_argument("--config", help="scenario config file")
    dump_a.set_defaults(fn=cmd_dump_allocations)

    dump_l = sub.add_parser("dump-log", help="print an event log file")
    dump_l.add_argument("--log", required=True)
    dump_l.set_defaults(fn=cmd_dump_log)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
