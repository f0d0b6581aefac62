"""OpenMP environment combinations (paper Table 1).

The paper tests eight combinations of ``OMP_NUM_THREADS`` /
``OMP_PROC_BIND`` / ``OMP_PLACES`` — three single-thread rows and five
"all threads" rows — and reports the best bandwidth over all of them.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..errors import OpenMPConfigError
from ..hardware.node import NodeSpec


@dataclass(frozen=True)
class OmpEnvironment:
    """One setting of the three OpenMP environment variables.

    ``num_threads`` of ``None`` means the variable is unset (the runtime
    then uses every hardware thread); ``proc_bind``/``places`` of ``None``
    mean unset.
    """

    num_threads: int | None = None
    proc_bind: str | None = None
    places: str | None = None

    def __post_init__(self) -> None:
        if self.num_threads is not None and self.num_threads < 1:
            raise OpenMPConfigError(f"OMP_NUM_THREADS must be >= 1: {self.num_threads}")
        if self.proc_bind is not None:
            allowed = {"true", "false", "master", "close", "spread"}
            if self.proc_bind not in allowed:
                raise OpenMPConfigError(
                    f"OMP_PROC_BIND={self.proc_bind!r} not in {sorted(allowed)}"
                )

    def resolve_num_threads(self, node: NodeSpec) -> int:
        """Thread count the runtime would create on ``node``."""
        if self.num_threads is not None:
            return self.num_threads
        return node.total_hardware_threads

    def describe(self) -> tuple[str, str, str]:
        """Render the Table 1 row (value or "not set")."""
        return (
            "not set" if self.num_threads is None else str(self.num_threads),
            "not set" if self.proc_bind is None else f'"{self.proc_bind}"',
            "not set" if self.places is None else f'"{self.places}"',
        )


def table1_configurations(node: NodeSpec) -> list[OmpEnvironment]:
    """The paper's Table 1 sweep, with #cores / #threads resolved.

    Returns the eight rows in table order: first the single-thread rows,
    then the ``#cores`` rows, then the ``#threads`` (all SMT) rows.
    """
    ncores = node.total_cores
    nthreads = node.total_hardware_threads
    return [
        # single thread
        OmpEnvironment(num_threads=1),
        OmpEnvironment(num_threads=1, proc_bind="true"),
        # one thread per core
        OmpEnvironment(num_threads=ncores),
        OmpEnvironment(num_threads=ncores, proc_bind="true"),
        OmpEnvironment(num_threads=ncores, proc_bind="spread", places="cores"),
        # one thread per hardware thread
        OmpEnvironment(num_threads=nthreads),
        OmpEnvironment(num_threads=nthreads, proc_bind="true"),
        OmpEnvironment(num_threads=nthreads, proc_bind="close", places="threads"),
    ]


def single_thread_configurations(node: NodeSpec) -> list[OmpEnvironment]:
    """The Table 1 rows with one thread."""
    return [c for c in table1_configurations(node) if c.resolve_num_threads(node) == 1]


def all_thread_configurations(node: NodeSpec) -> list[OmpEnvironment]:
    """The Table 1 rows using more than one thread."""
    return [c for c in table1_configurations(node) if c.resolve_num_threads(node) > 1]
