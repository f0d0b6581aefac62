"""Thread-team construction: the resolved result of one OpenMP config.

:func:`build_team` combines the environment (:mod:`~repro.openmp.env`),
the place parser and the binding policy into a :class:`ThreadTeam` — the
object the bandwidth model consumes.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..hardware.node import NodeSpec
from .binding import BindPolicy, assign_threads
from .env import OmpEnvironment
from .places import Place, parse_places, place_cores


# slots: build_team's teams live as long as their node, and a KNL node's
# all-thread teams hold hundreds of threads each
@dataclass(frozen=True, slots=True)
class BoundThread:
    """One OpenMP worker thread and where it may run."""

    thread_id: int
    #: the place (OS hwthread ids) the thread is bound to; None = unbound
    place: Place | None

    @property
    def bound(self) -> bool:
        return self.place is not None


@dataclass(frozen=True)
class ThreadTeam:
    """The resolved team for one node + OpenMP environment."""

    node: NodeSpec
    env: OmpEnvironment
    threads: tuple[BoundThread, ...]

    def __post_init__(self) -> None:
        # The geometry the bandwidth model reads is fixed by the fields,
        # and build_team serves one team per (node, environment), so it
        # is derived once.  Plain attributes, not fields: repr, equality
        # and the fingerprint walkers never see them.
        node = self.node
        bound = all(t.bound for t in self.threads)
        cores: set[int] = set()
        for t in self.threads:
            if t.place is not None:
                cores |= place_cores(t.place, node)
        per_socket: dict[int, int] = {}
        for core in cores:
            s = node.socket_of_core(core)
            per_socket[s] = per_socket.get(s, 0) + 1
        if bound:
            count: dict[int, int] = {}
            for t in self.threads:
                # A thread bound to a multi-hwthread place occupies one
                # of its cores at a time; charge its first core.
                core = node.hardware_thread(t.place[0]).core
                count[core] = count.get(core, 0) + 1
            most = max(count.values(), default=0)
        else:
            most = max(1, -(-len(self.threads) // max(1, node.total_cores)))
        object.__setattr__(self, "_bound", bound)
        object.__setattr__(self, "_cores_used", frozenset(cores))
        object.__setattr__(self, "_cores_per_socket", tuple(per_socket.items()))
        object.__setattr__(self, "_max_threads_per_core", most)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def bound(self) -> bool:
        """True when every thread has a place."""
        return self._bound

    def cores_used(self) -> set[int]:
        """Distinct cores covered by bound threads.

        For unbound threads the scheduler may use any core; callers
        should treat the team via :meth:`effective_core_count` instead.
        """
        return set(self._cores_used)

    def cores_per_socket(self) -> tuple[tuple[int, int], ...]:
        """``(socket, cores used on it)`` for the sockets bound threads
        cover."""
        return self._cores_per_socket

    def effective_core_count(self) -> int:
        """Cores that can simultaneously stream memory for this team."""
        if self._bound:
            return len(self._cores_used)
        # Unbound: the OS spreads runnable threads over idle cores.
        return min(self.num_threads, self.node.total_cores)

    def sockets_used(self) -> set[int]:
        if not self._bound:
            return set(range(self.node.n_sockets))
        return {s for s, _ in self._cores_per_socket}

    def max_threads_per_core(self) -> int:
        """Worst-case SMT sharing: among bound threads, or the OS's even
        spread of an unbound team."""
        return self._max_threads_per_core

    def smt_oversubscribed(self) -> bool:
        return self._max_threads_per_core > 1


def build_team(node: NodeSpec, env: OmpEnvironment) -> ThreadTeam:
    """Resolve one OpenMP environment into a bound thread team.

    A team depends only on the node's CPU geometry and ``env``, so the
    node keeps each one resolved and later calls return that object.
    """
    team = node._teams.get(env)
    if team is None:
        team = node._teams[env] = _resolve_team(node, env)
    return team


def _resolve_team(node: NodeSpec, env: OmpEnvironment) -> ThreadTeam:
    num_threads = env.resolve_num_threads(node)
    policy = BindPolicy.from_env(env.proc_bind)
    if policy == BindPolicy.UNBOUND:
        assignments: list[Place | None] = [None] * num_threads
    else:
        places = parse_places(env.places, node)
        assignments = assign_threads(policy, places, num_threads)
    threads = tuple(
        BoundThread(thread_id=i, place=place)
        for i, place in enumerate(assignments)
    )
    return ThreadTeam(node=node, env=env, threads=threads)
