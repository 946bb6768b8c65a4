"""Route-set builders for the demo scenarios.

Route ids are prefixed with the owning container id so one shared event log
stays unambiguous across containers.
"""

from __future__ import annotations

import logging
import time
from operator import attrgetter

from ..expressions import body_to_term, constant, expr, header, stringify
from ..routing import (
    AggregationStrategy,
    IdempotentRepository,
    InvalidTransitionError,
    RouteBuilder,
    RouteEngine,
    RouteState,
    set_union,
)
from ..services import CoordService, NoNodeError
from ..terms import Compound, Str

logger = logging.getLogger(__name__)


def account_query_routes(rb: RouteBuilder, prefix: str) -> RouteBuilder:
    """Synchronous action backed by a table query; the reply header carries the
    account list, as a list value, that instantiates the action's argument."""
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
        .idempotent_consumer(header("actor"), IdempotentRepository(100))
        .set_body(header("actor"))
        .to(f"coord://{coord_server}/agents/agent?create=true&createMode=EPHEMERAL_SEQUENTIAL")
    )


def membership_routes(
    rb: RouteBuilder, prefix: str, coord: CoordService, coord_server: str = "srv"
) -> RouteBuilder:
    """Watch the membership node, map node names to agent names, and push the
    list to all local agents as a replacing persistent percept, ``agents([])``
    once the last member is gone.  A node that is gone by the time its name is
    read names nobody."""

    def agents_percept(x):
        names = []
        for node in x.in_msg.body:
            try:
                names.append(coord.get_data("/agents/" + stringify(node)))
            except NoNodeError:
                pass
        x.in_msg.body = Compound("agents", (body_to_term(tuple(names)),))

    return (
        rb.from_(
            f"coord://{coord_server}/agents?listChildren=true&repeat=true",
            route_id=f"{prefix}membership",
        )
        .process(agents_percept)
        .to("agent:percept?persistent=true&updateMode=-+")
    )


class MissingMailError(LookupError):
    """A reply came after its mail's bucket timed out and its key reopened."""


class _MailToReplies(AggregationStrategy):
    """The mail, which opened its bucket, sent to the union of the replies."""

    def merge(self, exchanges):
        mail, *replies = exchanges
        if "subject" not in mail.in_msg.headers:
            raise MissingMailError(mail.in_msg.headers.get("id"))
        mail.in_msg.headers["to"] = set_union(x.in_msg.body for x in replies)
        return mail


def mail_routes(
    rb: RouteBuilder, prefix: str, account: str, aggregate_timeout_ms: int, agent_count: int
) -> RouteBuilder:
    """Poll mail, scatter a relevance request to the local agents, and gather
    the mail and their reply lists in one aggregate, on ``forward``, which
    sends the mail to the union of nominated users.

    The mail opens its bucket first.  Every agent replies, with an empty list
    when nothing matches, so the bucket is complete at ``agent_count`` + 1;
    the timeout merges what has arrived when a reply or the request fails.
    The merged mail goes on as ``forward``'s own: what fails is logged there.

    The request and the replies stay terms between the routes and the agents,
    so mail content reaches the agents as string arguments whatever characters
    it holds, and no reply is rendered or parsed."""

    def check_relevance(x):
        headers = x.in_msg.headers
        fields = (headers["id"], headers["from"], headers["subject"], x.in_msg.body)
        x.in_msg.body = Compound("check_relevance", tuple(Str(stringify(f)) for f in fields))

    def read_relevant(x):
        # relevant(Id, [Email, ...]): the id correlates, the emails are the body.
        reply_id, emails = x.in_msg.body.args
        x.in_msg.headers["id"] = reply_id.text
        x.in_msg.body = tuple(map(attrgetter("text"), emails.elements))

    (
        rb.from_(
            f"mail:{account}?delete=true&copyTo=processed", route_id=f"{prefix}mail-poll"
        )
        .set_header("id", expr("${id}"))
        .to("direct:forward", "direct:ask-agents")  # in order, inline
    )
    (
        rb.from_("direct:ask-agents", route_id=f"{prefix}ask-agents")
        .process(check_relevance)
        .set_header("receiver", constant("all"))
        .set_header("sender", constant("router"))
        .to("agent:message?illoc_force=achieve")
    )
    (
        rb.from_(
            "agent:message?illoc_force=tell&receiver=router",
            route_id=f"{prefix}collect-replies",
        )
        .process(read_relevant)
        .to("direct:forward")
    )
    (
        rb.from_("direct:forward", route_id=f"{prefix}forward")
        .aggregate(header("id"), _MailToReplies())
        .completion_timeout(aggregate_timeout_ms, size=agent_count + 1)
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
    """Plan-change notifications suspend the mail poller and schedule, on the
    engine, its resume after a fixed delay."""

    def resume():
        try:
            engine.controller(mail_route_id).resume()
        except InvalidTransitionError:
            logger.debug("route %s already resumed", mail_route_id)

    def on_plan_change(x):
        route = engine.controller(mail_route_id)
        if route.state is RouteState.STARTED:
            route.suspend()
        engine.call_at(time.monotonic() + resume_delay_ms / 1000, resume)

    rb = RouteBuilder()
    rb.from_("broker:topic:plan-changes", route_id=f"{prefix}plan-suspend").process(on_plan_change)
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
