"""Queued resources: reference queues for kernel and Link oracles.

This is the former ``repro.sim.resources``, kept verbatim apart from
this paragraph and absolute imports.  No production code uses it.
``Store`` is the queue both kernel differential tests build on, and
``Resource`` backs ``tests/reference_link.py``, the oracle for the
channel claim ``Link`` now owns.  ``Container`` and ``PriorityResource``
keep their tests in ``test_sim_resources.py``.

Original description — queued resources for the simulation kernel.

Provides the classic trio used throughout the reproduction:

* :class:`Resource` — a counted resource with FIFO (or priority) queueing,
  used for GPUs, PCIe lanes, and staging buffers.
* :class:`Container` — a continuous quantity (bytes of memory, etc.).
* :class:`Store` — a FIFO buffer of Python objects (job queues, mailboxes).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Request", "Resource", "PriorityResource", "Container", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Fires when the resource grants the claim.  Usable as a context
    manager inside a process::

        with resource.request() as req:
            yield req
            ...  # holding the resource
    """

    __slots__ = ("resource", "priority", "time")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.time = resource.env.now
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the resource (or withdraw the queued claim)."""
        self.resource.release(self)


class Resource:
    """A resource with ``capacity`` slots and a wait queue.

    Requests are granted in FIFO order; :class:`PriorityResource` sorts
    the queue by the request's ``priority`` (lower is more urgent), with
    FIFO tie-breaking.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, priority: float = 0.0) -> Request:
        """Claim one slot; returns an event that fires when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``.

        Releasing a request that was never granted silently withdraws it
        from the queue, which makes ``with resource.request()`` safe even
        if the process is interrupted while waiting.
        """
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif request in self.queue:
            self.queue.remove(request)

    # -- internal --------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self._insert(request)

    def _insert(self, request: Request) -> None:
        self.queue.append(request)

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self._pop_next()
            self.users.append(request)
            request.succeed()

    def _pop_next(self) -> Request:
        return self.queue.pop(0)


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority."""

    def _pop_next(self) -> Request:
        best_index = 0
        for index, request in enumerate(self.queue):
            best = self.queue[best_index]
            if (request.priority, request.time) < (best.priority, best.time):
                best_index = index
        return self.queue.pop(best_index)


class Container:
    """A continuous quantity with blocking ``get`` and ``put``.

    Used for byte-counted memories where exact block identity does not
    matter (e.g. staging-buffer credit).
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: list[tuple[float, Event]] = []
        self._putters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; blocks while it would exceed capacity."""
        if amount < 0:
            raise SimulationError("cannot put a negative amount")
        event = self.env.event()
        if not self._putters and self._level + amount <= self.capacity:
            # Uncontended fast path; succeeds in the same order the settle
            # loop would (put first, then any now-satisfiable getters).
            self._level += amount
            event.succeed()
            if self._getters:
                self._settle()
            return event
        self._putters.append((amount, event))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; blocks until available."""
        if amount < 0:
            raise SimulationError("cannot get a negative amount")
        event = self.env.event()
        if not self._getters and not self._putters and amount <= self._level:
            self._level -= amount
            event.succeed(amount)
            return event
        self._getters.append((amount, event))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, event = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    self._putters.pop(0)
                    event.succeed()
                    progressed = True
            if self._getters:
                amount, event = self._getters[0]
                if amount <= self._level:
                    self._level -= amount
                    self._getters.pop(0)
                    event.succeed(amount)
                    progressed = True


class Store:
    """A FIFO buffer of items with blocking ``get``.

    ``get`` optionally takes a filter predicate, in which case the first
    matching item is returned (a FilterStore in SimPy terms).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: list[tuple[Optional[Callable[[Any], bool]], Event]] = []
        self._putters: list[tuple[Any, Event]] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Append ``item``; blocks while the store is full."""
        event = self.env.event()
        if not self._putters and len(self.items) < self.capacity:
            # Uncontended fast path; same succeed order as the settle
            # loop (the put first, then any now-satisfiable getter).
            self.items.append(item)
            event.succeed()
            if self._getters:
                self._settle()
            return event
        self._putters.append((item, event))
        self._settle()
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Remove and return the first (matching) item; blocks if none."""
        event = self.env.event()
        if not self._getters and not self._putters:
            index = self._find(predicate)
            if index is not None:
                event.succeed(self.items.pop(index))
                return event
        self._getters.append((predicate, event))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                item, event = self._putters.pop(0)
                self.items.append(item)
                event.succeed()
                progressed = True
            # Grant getters in FIFO order, skipping those whose predicate
            # matches nothing yet.
            remaining: list[tuple[Optional[Callable[[Any], bool]], Event]] = []
            for predicate, event in self._getters:
                index = self._find(predicate)
                if index is None:
                    remaining.append((predicate, event))
                else:
                    event.succeed(self.items.pop(index))
                    progressed = True
            self._getters = remaining

    def _find(self, predicate: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if predicate is None:
            return 0 if self.items else None
        for index, item in enumerate(self.items):
            if predicate(item):
                return index
        return None
