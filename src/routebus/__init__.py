"""routebus: an in-process message routing engine with an embedded agent runtime."""

from .messages import (
    BodyValue,
    EndpointUri,
    Exchange,
    ExchangePattern,
    Message,
    RowSet,
    new_exchange,
    parse_uri,
)
from .expressions import body, constant, expr, header
from .routing import (
    EventLog,
    IdempotentRepository,
    ListAppend,
    RouteBuilder,
    RouteDefinition,
    RouteEngine,
    RouteService,
    RouteState,
    SetUnion,
)
from .agents import (
    AgentContainer,
    AgentId,
    AgentMessage,
    Async,
    BehaviorRule,
    OnMessage,
    OnPercept,
    OnStartup,
    PerformAction,
    Persistence,
    SendMessage,
    Sync,
    UpdateMode,
)
from .agent_endpoints import AgentComponent, AgentEndpointConfig, EndpointKind
from .terms import ActionTerm, Atom, Compound, ListTerm, Number, Str, Var, parse_term, render_term

__version__ = "0.1.0"
