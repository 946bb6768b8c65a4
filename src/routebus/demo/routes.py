"""Route-set builders for the demo scenarios.

Route ids are prefixed with the owning container id so one shared event log
stays unambiguous across containers.
"""

from __future__ import annotations

import itertools
import logging

from ..expressions import body, constant, expr, header, stringify
from ..routing import (
    CombineBodyAndHeader,
    IdempotentRepository,
    InvalidTransitionError,
    ListAppend,
    RouteBuilder,
    RouteEngine,
    RouteState,
    SetUnion,
)
from ..services import CoordService

logger = logging.getLogger(__name__)

_resume_seq = itertools.count(1)


def account_query_routes(rb: RouteBuilder, prefix: str) -> RouteBuilder:
    """Synchronous action backed by a table query; the reply header carries the
    quoted account list that instantiates the action's argument."""
    return (
        rb.from_(
            "agent:action?exchangePattern=InOut"
            "&actionName=get_email_accounts&resultHeaderMap=result:1",
            route_id=f"{prefix}account-query",
        )
        .set_body(constant("select email from users"))
        .to("table:dataSource")
        .transform_rows_to_quoted_list("email")
        .set_header("result", expr("${body}"))
    )


def registration_routes(rb: RouteBuilder, prefix: str, coord_server: str = "srv") -> RouteBuilder:
    """Register actions become ephemeral-sequential membership nodes; duplicate
    registrations from the same actor are dropped eagerly."""
    return (
        rb.from_("agent:action?actionName=register", route_id=f"{prefix}register")
        .idempotent_consumer(header("actor"), IdempotentRepository(100), eager=True)
        .set_body(header("actor"))
        .to(f"coord://{coord_server}/agents/agent?create=true&createMode=EPHEMERAL_SEQUENTIAL")
    )


def membership_routes(
    rb: RouteBuilder, prefix: str, coord: CoordService, coord_server: str = "srv"
) -> RouteBuilder:
    """Watch the membership node, map node names to agent names, and push the
    aggregated list to all local agents as a replacing persistent percept."""

    def node_to_name(x):
        x.in_msg.body = coord.get_data("/agents/" + stringify(x.in_msg.body))

    return (
        rb.from_(
            f"coord://{coord_server}/agents?listChildren=true&repeat=true",
            route_id=f"{prefix}membership",
        )
        .set_header("numChildren", expr("${body.size}"))
        .split(body())
        .process(node_to_name, "node-to-name")
        .aggregate(header("numChildren"), ListAppend())
        .completion_size(header("numChildren"))
        .set_body(expr("agents(${bodyAs(String)})"))
        .to("agent:percept?persistent=true&updateMode=-+")
    )


def mail_routes(
    rb: RouteBuilder,
    prefix: str,
    account: str,
    aggregate_timeout_ms: int,
    forward_completion_size: int = 2,
) -> RouteBuilder:
    """Poll mail, scatter a relevance request to the local agents, gather their
    reply lists, and forward the mail to the union of nominated users."""
    (
        rb.from_(
            f"mail:{account}?delete=true&copyTo=processed", route_id=f"{prefix}mail-poll"
        )
        .set_header("id", expr('"${id}"'))
        .to("buffered:forward-message", "direct:ask-agents")
    )
    (
        rb.from_("direct:ask-agents", route_id=f"{prefix}ask-agents")
        .set_body(
            expr(
                'check_relevance(${header.id},"${header.from}",'
                '"${header.subject}","${bodyAs(String)}")'
            )
        )
        .set_header("receiver", constant("all"))
        .set_header("sender", constant("router"))
        .to("agent:message?illoc_force=achieve")
    )
    # The first capture group excludes commas so a multi-element reply list
    # cannot bleed into the correlation id.
    (
        rb.from_(
            r"agent:message?illoc_force=tell&receiver=router"
            r"&match=relevant\(([^,]*),(.*)\)&replace=$1:$2",
            route_id=f"{prefix}collect-replies",
        )
        .set_header("id", expr('${body.split(":")[0]}'))
        .set_body(expr('${body.split(":")[1]}'))
        .aggregate(header("id"), SetUnion())
        .completion_timeout(aggregate_timeout_ms)
        .set_header("to", expr("${bodyAs(String)}"))
        .to("buffered:forward-message")
    )
    (
        rb.from_("buffered:forward-message", route_id=f"{prefix}forward")
        .aggregate(header("id"), CombineBodyAndHeader("to"))
        .completion_size(forward_completion_size)
        .set_header("from", constant("to.share@bigcorp.com"))
        .to(f"mailto:{account}")
    )
    return rb


def topic_percept_routes(
    rb: RouteBuilder, prefix: str, topics: tuple[str, ...] = ("account-changes", "plan-changes")
) -> RouteBuilder:
    """Broker topics carrying change notifications become transient percepts."""
    for topic in topics:
        rb.from_(f"broker:topic:{topic}", route_id=f"{prefix}topic-{topic}").to("agent:percept")
    return rb


def lifecycle_routes(
    engine: RouteEngine, prefix: str, mail_route_id: str, resume_delay_ms: int
) -> RouteBuilder:
    """Plan-change notifications suspend the mail poller and start a one-shot
    timer route that resumes it after a fixed delay."""

    def on_plan_change(x):
        controller = engine.controller(mail_route_id)
        if controller.state is RouteState.STARTED:
            controller.suspend()
        resume_id = f"{prefix}resume-timer-{next(_resume_seq)}"

        def resume(_tick):
            try:
                engine.controller(mail_route_id).resume()
            except InvalidTransitionError:
                logger.debug("route %s already resumed", mail_route_id)
            engine.controller(resume_id).stop()

        timer_rb = RouteBuilder()
        timer_rb.from_(f"timer:{resume_id}?delay={resume_delay_ms}", route_id=resume_id).process(
            resume, "resume-mail-poll"
        )
        engine.add_routes(timer_rb)

    rb = RouteBuilder()
    rb.from_("broker:topic:plan-changes", route_id=f"{prefix}plan-suspend").process(
        on_plan_change, "suspend-mail-poll"
    )
    return rb


def bridge_routes(rb: RouteBuilder, prefix: str, container_id: str) -> RouteBuilder:
    """Inter-container messaging over the broker: outbound messages are routed
    to the queue named by the receiver's container id; the inbound queue named
    after this container feeds the local message producer."""
    (
        rb.from_("agent:message", route_id=f"{prefix}bridge-out")
        .set_header("broker.destination", expr('${headers.receiver.split("__")[0]}'))
        .to("broker:queue:dummy")
    )
    (
        rb.from_(f"broker:queue:{container_id}", route_id=f"{prefix}bridge-in").to(
            "agent:message"
        )
    )
    return rb
