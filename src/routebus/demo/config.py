"""Scenario configuration and the line-record fixture format.

The scenario file is INI-style; table seeds and mail fixtures are separate
text files with one record per line, fields as ``column=value`` pairs joined
by ``|``::

    email=a@x|interests=budget,planning
    to=to.share|from=alice@corp|subject=budget review|body=draft attached

Blank lines and ``#`` comments are skipped.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


class ConfigError(ValueError):
    pass


KNOWN_ROUTE_SETS = {"use_case", "inter_container"}


@dataclass
class AgentSpec:
    local_name: str
    behavior_set: str = "relevance"


@dataclass
class ContainerSpec:
    name: str
    id_mode: str = "static"  # "static" | "dynamic"
    agents: list[AgentSpec] = field(default_factory=list)

    def __post_init__(self):
        if self.id_mode not in ("static", "dynamic"):
            raise ConfigError(f"unknown id_mode {self.id_mode!r}")
        names = [a.local_name for a in self.agents]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate agent names in container {self.name}")


@dataclass
class ScenarioConfig:
    containers: list[ContainerSpec]
    users: list[dict[str, str]] = field(default_factory=list)
    mails: list[dict[str, str]] = field(default_factory=list)
    mail_account: str = "to.share"
    route_sets: set[str] = field(default_factory=lambda: {"use_case"})
    aggregate_timeout_ms: int = 2000
    resume_delay_ms: int = 500
    designated_poller: Optional[str] = None
    duration_ms: Optional[int] = None
    mail_file: Optional[Path] = None

    def __post_init__(self):
        unknown = self.route_sets - KNOWN_ROUTE_SETS
        if unknown:
            raise ConfigError(f"unknown route sets: {sorted(unknown)}")
        emails = [u["email"] for u in self.users]
        if len(set(emails)) != len(emails):
            raise ConfigError("duplicate user emails in seed data")

    @classmethod
    def default(cls) -> "ScenarioConfig":
        return cls(
            containers=[
                ContainerSpec(
                    "main",
                    "static",
                    [AgentSpec("alice"), AgentSpec("bob")],
                )
            ],
            users=[
                {"email": "a@x", "interests": "budget,planning"},
                {"email": "b@x", "interests": "travel"},
                {"email": "c@x", "interests": "hr"},
            ],
            mails=[
                {
                    "to": "to.share",
                    "from": "alice@corp",
                    "subject": "budget review",
                    "body": "quarterly budget draft for review",
                }
            ],
        )

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        base = path.parent

        containers: list[ContainerSpec] = []
        for section in parser.sections():
            if not section.startswith("container:"):
                continue
            name = section.split(":", 1)[1]
            agents = []
            for line in parser.get(section, "agents", fallback="").splitlines():
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) > 2:
                    raise ConfigError(f"{path}: agent line {line!r} is not NAME [BEHAVIOR_SET]")
                agents.append(AgentSpec(*parts))
            containers.append(
                ContainerSpec(name, parser.get(section, "id_mode", fallback="static"), agents)
            )
        if not containers:
            raise ConfigError(f"{path}: no [container:NAME] sections")

        scenario = parser["scenario"] if parser.has_section("scenario") else {}
        mail_file = None
        users: list[dict[str, str]] = []
        mails: list[dict[str, str]] = []
        if parser.has_section("users") and parser.get("users", "file", fallback=None):
            users = load_records(base / parser.get("users", "file"))
        if parser.has_section("mail") and parser.get("mail", "file", fallback=None):
            mail_file = base / parser.get("mail", "file")
            if mail_file.exists():
                mails = load_records(mail_file)

        route_sets = {
            s.strip()
            for s in str(scenario.get("route_sets", "use_case")).split(",")
            if s.strip()
        }
        return cls(
            containers=containers,
            users=users,
            mails=mails,
            mail_account=str(scenario.get("mail_account", "to.share")),
            route_sets=route_sets,
            aggregate_timeout_ms=int(scenario.get("aggregate_timeout_ms", 2000)),
            resume_delay_ms=int(scenario.get("resume_delay_ms", 500)),
            designated_poller=scenario.get("designated_poller") or None,
            mail_file=mail_file,
        )


def load_records(path: str | Path) -> list[dict[str, str]]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        record = {}
        for part in line.split("|"):
            key, _, value = part.partition("=")
            record[key.strip()] = value
        records.append(record)
    return records


def append_record(path: str | Path, record: dict[str, str]) -> None:
    for key, value in record.items():
        if "|" in value or "\n" in value:
            raise ConfigError(f"field {key} may not contain '|' or newlines")
    line = "|".join(f"{k}={v}" for k, v in record.items())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
