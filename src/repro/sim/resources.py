"""Shared resources with FIFO queuing.

:class:`Resource` models a fixed pool of service slots (a device's DMA
engines).  Processes ``yield resource.request()`` to acquire a slot and
call ``resource.release(req)`` when done.  ``request()`` objects are
events that trigger when the slot is granted; a release takes effect at
once and costs no event.
"""

from __future__ import annotations

from ..errors import SimulationError
from .engine import Environment, Event


class Request(Event):
    """Pending acquisition of one slot of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A pool of ``capacity`` identical service slots with FIFO queuing."""

    __slots__ = ("env", "capacity", "users", "queue")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            # Cancelling a queued request is allowed.
            self.queue.remove(request)
        else:
            raise SimulationError("releasing a request that does not hold the resource")
        self._grant_next()

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            nxt.succeed()
