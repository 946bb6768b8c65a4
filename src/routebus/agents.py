"""Agent container and reactive agents: percept queues, inboxes, cycles, actions.

Agents are deliberately thin: behaviour rules map triggers (startup, a percept
arriving, a message arriving) to host hooks that write their own agent's
memory and return effects (send a message, perform an action).  Queue
semantics, agent naming (``containerId__localName``) and the endpoint
contracts are kept rich enough that a full reasoning engine could be slotted
in behind the same container interface.

A started container runs each agent's cycle as a turn on its engine's loop
when a message or percept arrives; only that loop touches the agents' queues
and memory, and other threads hand their work to it.  A synchronous action
suspends its cycle until its ``Future`` is settled on the loop, while the
other agents keep cycling.  ``_cycled``, a ``Condition`` that every turn
notifies, lets other threads wait on the cycles.
"""

from __future__ import annotations

import itertools
import logging
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence, Union

from .routing import EventLog, RouteEngine
from .terms import (
    ActionTerm,
    Literal,
    Term,
    functor_of,
    args_of,
    render_term,
)

logger = logging.getLogger(__name__)

__all__ = [
    "AgentId",
    "Persistence",
    "UpdateMode",
    "PerceptEntry",
    "AgentMessage",
    "AgentState",
    "AgentContainer",
    "BehaviorRule",
    "OnStartup",
    "OnPercept",
    "OnMessage",
    "SendMessage",
    "PerformAction",
    "ActionMode",
    "Sync",
    "Async",
    "UnknownAgentError",
    "NoMatchingEndpointError",
    "ActionTimeoutError",
    "UnboundVariablesError",
    "CoordinationUnavailableError",
    "BROADCAST",
]

# Reserved receiver name for broadcasts; no agent can carry it because the
# container id is always prepended to local names.
BROADCAST = "all"

DEFAULT_SYNC_TIMEOUT_MS = 5000


class UnknownAgentError(KeyError):
    pass


class NoMatchingEndpointError(LookupError):
    pass


class ActionTimeoutError(TimeoutError):
    pass


class UnboundVariablesError(ValueError):
    pass


class CoordinationUnavailableError(RuntimeError):
    pass


@dataclass(frozen=True)
class AgentId:
    container_id: str
    local_name: str

    def __post_init__(self):
        if "__" in self.local_name:
            raise ValueError(f"local name {self.local_name!r} contains '__'")
        if self.full_name == BROADCAST:
            raise ValueError(f"agent may not be named {BROADCAST!r}")

    @property
    def full_name(self) -> str:
        return f"{self.container_id}__{self.local_name}"


class Persistence(Enum):
    TRANSIENT = "transient"
    PERSISTENT = "persistent"


class UpdateMode(Enum):
    ACCUMULATE = "accumulate"
    REPLACE_SAME_FUNCTOR_ARITY = "-+"


@dataclass
class PerceptEntry:
    literal: Literal
    novel: bool = True


@dataclass(frozen=True)
class AgentMessage:
    illoc_force: str
    sender: str
    receiver: str
    content: Literal
    msg_id: str
    annotations: tuple[Term, ...] = ()


# --- behaviour rules and effects -------------------------------------------------


@dataclass(frozen=True)
class OnStartup:
    @property
    def key(self) -> tuple:
        return ("startup",)


@dataclass(frozen=True)
class OnPercept:
    """Fires on a percept with this functor and arity."""

    functor: str
    arity: int

    @property
    def key(self) -> tuple:
        return ("percept", self.functor, self.arity)


@dataclass(frozen=True)
class OnMessage:
    """Fires on a message with this illocutionary force and content functor,
    at any arity."""

    illoc_force: str
    functor: str

    @property
    def key(self) -> tuple:
        return ("message", self.illoc_force, self.functor)


Trigger = Union[OnStartup, OnPercept, OnMessage]


@dataclass(frozen=True)
class Sync:
    timeout_ms: int = DEFAULT_SYNC_TIMEOUT_MS


class Async:
    pass


ActionMode = Union[Sync, Async]


@dataclass(frozen=True)
class SendMessage:
    illoc_force: str
    receiver: str
    content: Literal
    annotations: tuple[Term, ...] = ()


@dataclass(frozen=True)
class PerformAction:
    term: ActionTerm
    mode: ActionMode = field(default_factory=Async)
    on_result: Optional[Callable[["AgentState", object], None]] = None


AgentEffect = Union[SendMessage, PerformAction]

Hook = Callable[["AgentState", object], Sequence[AgentEffect]]


@dataclass(frozen=True)
class BehaviorRule:
    trigger: Trigger
    hook: Hook
    name: str = "rule"


class AgentState:
    """Per-agent queues plus a memory dict for the behaviour hooks."""

    def __init__(self, agent_id: AgentId, behaviors: Sequence[BehaviorRule] = ()):
        self.id = agent_id
        self.behaviors = behaviors
        self.memory: dict[str, object] = {}
        self.inbox: deque[AgentMessage] = deque()
        self.transient: deque[PerceptEntry] = deque()
        self.persistent: list[PerceptEntry] = []
        self.started = False
        self.submit: Callable[[], None] = lambda: None  # queues a turn once started
        self.queued = False
        self.cycle: Optional[Iterator] = None  # a cycle waiting for an action's reply

    @property
    def full_name(self) -> str:
        return self.id.full_name

    @property
    def behaviors(self) -> tuple[BehaviorRule, ...]:
        return self._behaviors

    @behaviors.setter
    def behaviors(self, rules: Sequence[BehaviorRule]) -> None:
        """Index the rules by their trigger's ``key``, in rule order within a
        key; ``AgentContainer._cycle`` makes each event's key the same way."""
        self._behaviors = tuple(rules)
        self._rules: dict[tuple, list[BehaviorRule]] = {}
        for rule in self._behaviors:
            self._rules.setdefault(rule.trigger.key, []).append(rule)

    # -- writes --

    def ready(self) -> None:
        """Queue this agent's turn unless it is queued; the turn clears the flag
        before its cycle drains, so input arriving mid-cycle queues the next."""
        if not self.queued:
            self.queued = True
            self.submit()

    def enqueue_message(self, msg: AgentMessage) -> None:
        self.inbox.append(msg)
        self.ready()

    def add_percept(self, literal: Literal, persistence: Persistence, mode: UpdateMode) -> None:
        if mode is UpdateMode.REPLACE_SAME_FUNCTOR_ARITY:
            self._remove_same_shape(literal)
        if persistence is Persistence.TRANSIENT:
            self.transient.append(PerceptEntry(literal))
        else:
            # Persistent accumulation has set semantics: an identical
            # literal is not stored twice.
            if any(e.literal == literal for e in self.persistent):
                return
            self.persistent.append(PerceptEntry(literal))
        self.ready()

    def _remove_same_shape(self, literal: Literal) -> None:
        f, n = functor_of(literal), len(args_of(literal))
        same = lambda e: functor_of(e.literal) == f and len(args_of(e.literal)) == n
        self.transient = deque(e for e in self.transient if not same(e))
        self.persistent = [e for e in self.persistent if not same(e)]

    # -- reads (agent's cycle only) --

    def drain_for_cycle(self) -> tuple[list[PerceptEntry], list[PerceptEntry], list[AgentMessage]]:
        transients = list(self.transient)
        self.transient.clear()
        novel = [e for e in self.persistent if e.novel]
        for e in novel:
            e.novel = False
        messages = list(self.inbox)
        self.inbox.clear()
        return transients, novel, messages

    def persistent_snapshot(self) -> list[Literal]:
        return [e.literal for e in self.persistent]


class AgentContainer:
    """A process-local group of agents sharing one container id.

    A dynamic container id is obtained by creating an ephemeral-sequential
    node under ``/containers`` in the coordination service; the node name
    becomes the id.  Static ids skip coordination (a session is still opened
    when a coordination service is supplied, so routes created for this
    container can own ephemeral nodes).
    """

    def __init__(
        self,
        container_id: Optional[str] = None,
        coord=None,
        dynamic_id: bool = False,
        log: Optional[EventLog] = None,
    ):
        self.coord = coord
        self.session = None
        if dynamic_id:
            if coord is None:
                raise CoordinationUnavailableError("dynamic container id needs a coordination service")
            self.session = coord.create_session()
            path = coord.create(
                self.session, "/containers/container", "", "EPHEMERAL_SEQUENTIAL", auto_parents=True
            )
            self.container_id = path.rsplit("/", 1)[-1]
        else:
            if not container_id:
                raise ValueError("static container id required when dynamic_id is off")
            self.container_id = container_id
            if coord is not None:
                self.session = coord.create_session()
        self.log = log or EventLog()
        self.agents: dict[str, AgentState] = {}
        self._message_bindings: tuple = ()
        self._action_bindings: tuple = ()
        self._msg_seq = itertools.count(1)
        self._cycled = threading.Condition()
        self._call: Callable = lambda fn: fn()  # the engine's ``call`` once started

    # -- agents --

    def add_agent(self, local_name: str, behaviors: Sequence[BehaviorRule] = ()) -> AgentState:
        agent = AgentState(AgentId(self.container_id, local_name), behaviors)
        if agent.full_name in self.agents:
            raise ValueError(f"duplicate agent {agent.full_name}")
        self.agents[agent.full_name] = agent
        return agent

    def start(self, engine: RouteEngine) -> None:
        """Cycle the agents on ``engine``'s loop, each first for its startup rules."""
        self._call = engine.call
        for agent in self.agents.values():
            agent.submit = lambda agent=agent: engine.submit(lambda: self._turn(agent))
            agent.queued = True
            agent.submit()
        self.log.emit(f"container:{self.container_id}", "lifecycle", detail="started")

    def stop(self) -> None:
        for agent in self.agents.values():
            agent.submit = lambda: None
        self.log.emit(f"container:{self.container_id}", "lifecycle", detail="stopped")

    def _turn(self, agent: AgentState) -> None:
        agent.queued = False
        waited = agent.cycle is not None
        self.run_cycle(agent)
        if waited and agent.cycle is None:
            agent.ready()  # for input that arrived while the cycle waited
        with self._cycled:
            self._cycled.notify_all()

    def wait_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Block until ``predicate()`` holds, checked after every agent turn."""
        with self._cycled:
            return self._cycled.wait_for(predicate, timeout)

    # -- reasoning cycle --

    def run_cycle(self, agent: AgentState) -> list[AgentEffect]:
        """Run the agent's cycle (see ``_cycle``) until it ends or waits for a
        synchronous action's reply, after which the next call goes on with it.
        Returns the effects that ran in this call."""
        agent.cycle = agent.cycle or self._cycle(agent)
        effects: list[AgentEffect] = []
        for fired in agent.cycle:
            if fired is None:
                return effects  # the reply readies the agent
            effects += fired
        agent.cycle = None
        return effects

    def _cycle(self, agent: AgentState) -> Iterator[Optional[list[AgentEffect]]]:
        """One cycle over the startup event (first cycle only, payload None),
        then the drained percepts, then the drained messages, each in arrival
        order.

        Each event fires the rules indexed under its key, made once per event,
        in rule order, and a rule's effects run before the next rule fires, so
        a hook sees what earlier hooks stored and what their actions returned.
        Hook errors are logged and skip only the offending rule.  Yields each
        rule's effects once they ran, and None while it waits for an action's
        reply.
        """
        transients, novel_persistents, messages = agent.drain_for_cycle()
        events: list[tuple[tuple, object]] = [] if agent.started else [(("startup",), None)]
        agent.started = True
        for e in (*transients, *novel_persistents):
            literal = e.literal
            events.append((("percept", functor_of(literal), len(args_of(literal))), literal))
        for m in messages:
            events.append((("message", m.illoc_force, functor_of(m.content)), m))
        for key, event in events:
            for rule in agent._rules.get(key, ()):
                fired = self._fire(agent, rule, event)
                yield from self._execute(agent, fired)
                yield fired

    def _fire(self, agent: AgentState, rule: BehaviorRule, payload) -> list[AgentEffect]:
        try:
            return list(rule.hook(agent, payload))
        except Exception:
            logger.exception("agent %s: rule %s failed", agent.full_name, rule.name)
            self.log.emit(
                f"container:{self.container_id}",
                "agent-error",
                detail=f"{agent.full_name} rule {rule.name} failed",
            )
            return []

    def _execute(self, agent: AgentState, effects: list[AgentEffect]) -> Iterator[None]:
        for effect in effects:
            try:
                if isinstance(effect, SendMessage):
                    msg = AgentMessage(
                        effect.illoc_force,
                        agent.full_name,
                        effect.receiver,
                        effect.content,
                        self.next_msg_id(),
                        effect.annotations,
                    )
                    self.route_local_message(msg)
                elif isinstance(effect, PerformAction):
                    result = self.perform_action(agent, effect.term, effect.mode)
                    if isinstance(result, Future):
                        result.add_done_callback(lambda _: agent.ready())
                        while not result.done():
                            yield None
                        result = result.result()
                    if effect.on_result is not None:
                        effect.on_result(agent, result)
            except Exception:
                logger.exception("agent %s: effect %r failed", agent.full_name, effect)
                self.log.emit(
                    f"container:{self.container_id}",
                    "agent-error",
                    detail=f"{agent.full_name} effect failed: {effect!r}",
                )

    def next_msg_id(self) -> str:
        return f"{self.container_id}-m{next(self._msg_seq)}"

    # -- message routing --

    def route_local_message(self, msg: AgentMessage) -> None:
        """A broadcast or a message to a local agent goes to local inboxes;
        any other is offered to the message bindings, a deadletter when none
        accepts it."""
        self._call(lambda: self._route_local_message(msg))

    def _route_local_message(self, msg: AgentMessage) -> None:
        if msg.receiver == BROADCAST or msg.receiver in self.agents:
            self.deliver_local(msg)
            return
        matched = False
        for binding in self._message_bindings:
            if binding.offer_message(msg):
                matched = True
        if not matched:
            self.log.emit(
                f"container:{self.container_id}",
                "deadletter",
                detail=f"unroutable message to {msg.receiver}: {render_term(msg.content)}",
            )

    def deliver_local(self, msg: AgentMessage) -> None:
        """Put a route-produced message into local inboxes (broadcast allowed)."""
        if msg.receiver == BROADCAST:
            for agent in list(self.agents.values()):
                agent.enqueue_message(msg)
            return
        agent = self.agents.get(msg.receiver)
        if agent is None:
            self.log.emit(
                f"container:{self.container_id}",
                "deadletter",
                detail=f"no local agent {msg.receiver}",
            )
            return
        agent.enqueue_message(msg)

    # -- percepts --

    def deliver_percept(
        self,
        receivers: Union[str, Sequence[str]],
        literal: Literal,
        persistence: Persistence = Persistence.TRANSIENT,
        update_mode: UpdateMode = UpdateMode.ACCUMULATE,
    ) -> None:
        if isinstance(receivers, str):
            targets = (
                list(self.agents.values())
                if receivers == BROADCAST
                else [self._require_agent(receivers)]
            )
        else:
            targets = [self._require_agent(name) for name in receivers]

        def add() -> None:
            for agent in targets:
                agent.add_percept(literal, persistence, update_mode)

        self._call(add)

    def _require_agent(self, full_name: str) -> AgentState:
        agent = self.agents.get(full_name)
        if agent is None:
            raise UnknownAgentError(full_name)
        return agent

    # -- actions --

    def register_message_binding(self, binding) -> None:
        self._message_bindings += (binding,)

    def register_action_binding(self, binding) -> None:
        self._action_bindings += (binding,)

    def unregister_binding(self, binding) -> None:
        self._message_bindings = tuple(b for b in self._message_bindings if b is not binding)
        self._action_bindings = tuple(b for b in self._action_bindings if b is not binding)

    def perform_action(self, agent: AgentState, term: ActionTerm, mode: ActionMode):
        """Dispatch an action to matching action-consumer endpoints.

        Asynchronous actions must be ground; they are offered to every
        matching endpoint and return True.  A synchronous action goes to the
        first registered matching endpoint only, as a request/reply exchange,
        and returns a ``Future`` of the term with the reply's mapped headers
        bound onto its variables, or of ``ActionTimeoutError``.
        """
        bindings = self._action_bindings
        if isinstance(mode, Async):
            if term.free_vars:
                raise UnboundVariablesError(
                    f"async action {render_term(term.literal)} has free variables"
                )
            matched = False
            for binding in bindings:
                if binding.offer_action(agent.id, term, mode) is not None:
                    matched = True
            if not matched:
                raise NoMatchingEndpointError(render_term(term.literal))
            return True
        # Synchronous: first registered matching endpoint wins.
        bound: Future = Future()
        for binding in bindings:
            if binding.offer_action(agent.id, term, mode, bound) is not None:
                return bound
        raise NoMatchingEndpointError(render_term(term.literal))
