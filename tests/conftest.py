"""Helpers shared by the test modules: a wait on a condition with a deadline,
and a read of a ``routebus.routing.Channel`` that gives up after a timeout.

Test modules import them with ``from conftest import take, wait_for``.
"""

import time

_POLL_S = 0.01


def wait_for(predicate, timeout):
    """True once ``predicate()`` holds, False if ``timeout`` seconds pass first."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(_POLL_S)
    return True


def take(channel, timeout):
    """The channel's next item, or None once ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while (item := channel.take()) is None and time.monotonic() < deadline:
        time.sleep(_POLL_S / 2)
    return item
