"""Scenario assembly and lifecycle.

One scenario owns the shared services (broker, coordination, mail, tables)
and, per configured container, an agent container plus its own route engine.
All engines and containers share a single event log so acceptance checks can
replay one ordered record of everything that happened.

Startup order matters for determinism: base routes and containers come up
first, then the runner waits until every agent has bound its account list and
seen the full membership percept before the mail poller starts.  Shutdown
stops routes before containers.  A scenario may be started again after
``stop()``: each engine starts its routes again, the mail routes the first
start added among them, and the containers resume their agents; readiness is
not awaited again, and the fixture mails are injected by the first start only.
"""

from __future__ import annotations

import logging
import sys
import time
from typing import Optional

from ..agent_endpoints import AgentComponent
from ..agents import AgentContainer
from ..messages import ExchangePattern, new_exchange
from ..routing import EventLog, RouteBuilder, RouteEngine
from ..services import (
    BrokerComponent,
    BrokerService,
    CoordComponent,
    CoordService,
    MailComponent,
    MailStore,
    MailtoComponent,
    TableComponent,
    TableStore,
    TimerComponent,
)
from ..terms import Compound, Str, render_term
from .behaviors import BEHAVIOR_SETS, allocation_view
from .config import ConfigError, ScenarioConfig
from . import routes as route_sets

logger = logging.getLogger(__name__)

READINESS_TIMEOUT_S = 10.0

ACCOUNT_TOPIC = "account-changes"
PLAN_TOPIC = "plan-changes"


class Scenario:
    def __init__(self, config: ScenarioConfig, log: Optional[EventLog] = None):
        self.config = config
        self.log = log or EventLog()
        self.broker = BrokerService()
        self.coord = CoordService()
        self.mail = MailStore()
        self.tables = TableStore(self.broker)
        self.engines: dict[str, RouteEngine] = {}
        self.containers: dict[str, AgentContainer] = {}
        self._built = False
        self._started = False
        self._ran = False  # a first start added the mail routes and fixture mails

    # -- assembly --

    def build(self) -> None:
        if self._built:
            return
        self._built = True
        self.tables.add_table("users", ("email", "interests"), self.config.users)
        self.tables.configure_notifications("users", ACCOUNT_TOPIC, "account", "email")
        self.coord.create(None, "/agents", auto_parents=True)
        self.mail.add_account(self.config.mail_account)

        use_case = "use_case" in self.config.route_sets
        bridge = "inter_container" in self.config.route_sets

        for spec in self.config.containers:
            container = AgentContainer(
                container_id=spec.name if spec.id_mode == "static" else None,
                coord=self.coord,
                dynamic_id=spec.id_mode == "dynamic",
                log=self.log,
            )
            engine = RouteEngine(log=self.log, name=container.container_id)
            engine.add_component("agent", AgentComponent(container))
            engine.add_component("broker", BrokerComponent(self.broker))
            engine.add_component("coord", CoordComponent(self.coord, container.session))
            engine.add_component("mail", MailComponent(self.mail))
            engine.add_component("mailto", MailtoComponent(self.mail))
            engine.add_component("table", TableComponent(self.tables))
            engine.add_component("timer", TimerComponent())
            for agent_spec in spec.agents:
                factory = BEHAVIOR_SETS.get(agent_spec.behavior_set)
                if factory is None:
                    raise ConfigError(f"unknown behavior set {agent_spec.behavior_set!r}")
                container.add_agent(agent_spec.local_name, factory(self.tables))
            prefix = f"{container.container_id}:"
            rb = RouteBuilder()
            if use_case:
                route_sets.account_query_routes(rb, prefix)
                route_sets.registration_routes(rb, prefix)
                route_sets.membership_routes(rb, prefix, self.coord)
                route_sets.topic_percept_routes(rb, prefix)
            if bridge:
                route_sets.bridge_routes(rb, prefix, container.container_id)
            engine.add_routes(rb, start=False)
            self.containers[spec.name] = container
            self.engines[spec.name] = engine

    # -- lifecycle --

    def start(self) -> None:
        self.build()
        if self._started:
            return
        self._started = True
        for engine in self.engines.values():
            engine.start()
        for name, container in self.containers.items():
            container.start(self.engines[name])
        if self._ran:
            return
        self._ran = True
        if "use_case" in self.config.route_sets:
            self._await_readiness()
            self._start_mail_routes()
        for record in self.config.mails:
            self.inject_mail(
                record.get("from", ""),
                record.get("subject", ""),
                record.get("body", ""),
                record.get("to") or self.config.mail_account,
            )

    def _poller_name(self) -> str:
        if self.config.designated_poller:
            if self.config.designated_poller not in self.containers:
                raise ConfigError(f"designated_poller {self.config.designated_poller!r} not a container")
            return self.config.designated_poller
        return self.config.containers[0].name

    def mail_route_id(self) -> str:
        poller = self._poller_name()
        return f"{self.containers[poller].container_id}:mail-poll"

    def _start_mail_routes(self) -> None:
        poller = self._poller_name()
        engine = self.engines[poller]
        container = self.containers[poller]
        prefix = f"{container.container_id}:"
        rb = RouteBuilder()
        route_sets.mail_routes(
            rb,
            prefix,
            self.config.mail_account,
            self.config.aggregate_timeout_ms,
            len(container.agents),
        )
        engine.add_routes(rb)
        engine.add_routes(
            route_sets.lifecycle_routes(
                engine, prefix, f"{prefix}mail-poll", self.config.resume_delay_ms
            )
        )

    def _await_readiness(self) -> None:
        expected = sum(len(c.agents) for c in self.containers.values())
        deadline = time.monotonic() + READINESS_TIMEOUT_S
        # A container's readiness changes only in its own agents' cycles, so
        # the containers can be waited for one after another.
        for container in self.containers.values():
            agents = list(container.agents.values())

            def ready() -> bool:
                return all(
                    agent.memory.get("accounts") is not None
                    and len(agent.memory.get("agents") or []) == expected
                    for agent in agents
                )

            if not container.wait_until(ready, deadline - time.monotonic()):
                logger.warning("scenario started before all agents reached readiness")
                self.log.emit("scenario", "warning", detail="readiness timeout")
                return

    def stop(self) -> None:
        for engine in self.engines.values():
            engine.stop()
        for container in self.containers.values():
            container.stop()
        self._started = False

    # -- scenario inputs --

    def inject_mail(self, from_addr: str, subject: str, body: str, to: Optional[str] = None) -> None:
        self.mail.deliver([to or self.config.mail_account], from_addr, subject, body)

    def add_user(self, email: str, interests: str) -> None:
        self.tables.mutate("users", "insert", {"email": email, "interests": interests})

    def remove_user(self, email: str) -> None:
        self.tables.mutate("users", "delete", {"email": email})

    def publish_plan_change(self, account: str) -> None:
        descriptor = Compound("plans_changed", (Str(account),))
        self.broker.send_topic(
            PLAN_TOPIC, new_exchange(ExchangePattern.IN_ONLY, render_term(descriptor))
        )

    # -- observation --

    def wait_quiescent(self, duration_ms: Optional[int] = None) -> str:
        """Block until no event for 3x the aggregation timeout, or the duration cap."""
        quiet_window = 3 * self.config.aggregate_timeout_ms / 1000.0
        deadline = time.monotonic() + duration_ms / 1000.0 if duration_ms else None
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return "duration"
            quiet_left = self.log.last_activity + quiet_window - time.time()
            if quiet_left <= 0:
                return "quiescent"
            # Nothing can end the wait before the earlier of the two; an event
            # in the meantime only moves the quiet window's end later.
            time.sleep(quiet_left if deadline is None else min(quiet_left, deadline - now))

    def forward_events(self) -> list[tuple[str, str]]:
        return [(r.route_id, r.detail) for r in self.log.events(event="forward")]

    def allocations(self):
        return {
            agent.full_name: allocation_view(agent)
            for container in self.containers.values()
            for agent in container.agents.values()
        }


def run_scenario(config: ScenarioConfig, log_path: Optional[str] = None) -> int:
    scenario = Scenario(config)
    try:
        scenario.start()
    except Exception as exc:
        logger.exception("scenario failed to start")
        print(f"scenario failed to start: {exc}", file=sys.stderr)
        try:
            scenario.stop()
        except Exception:
            pass
        return 1
    reason = scenario.wait_quiescent(config.duration_ms)
    scenario.stop()
    if log_path:
        scenario.log.write(log_path)
    forwards = scenario.forward_events()
    print(f"scenario finished ({reason}); {len(forwards)} mail forward(s)")
    for route_id, detail in forwards:
        print(f"  {route_id}: {detail}")
    return 0
