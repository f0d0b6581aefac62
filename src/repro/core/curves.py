"""Sweep curves: the size-dependent data behind the tables.

The paper reports plateau values (largest BabelStream size, small-message
OSU latency), but both suites are sweeps; this module exposes the full
curves and renders them as ASCII charts — useful for spotting the eager
-> rendezvous knee, the region where launch overhead dominates device
BabelStream, and the bandwidth ramp the paper's Appendix B describes.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..benchmarks.babelstream.cpu import run_cpu_config
from ..benchmarks.babelstream.gpu import run_gpu_stream
from ..benchmarks.osu.latency import osu_latency_sweep
from ..errors import BenchmarkConfigError
from ..machines.base import Machine
from ..mpisim.placement import on_socket_pair
from ..mpisim.transport import BufferKind
from ..openmp.env import OmpEnvironment, table1_configurations
from ..units import format_bytes, to_gb_per_s, to_us


@dataclass(frozen=True)
class CurvePoint:
    x: int          # bytes
    y: float        # metric value (B/s or seconds)


@dataclass(frozen=True)
class Curve:
    """One labelled sweep."""

    machine: str
    label: str
    unit: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise BenchmarkConfigError(f"curve {self.label} has no points")

    def ys(self) -> list[float]:
        return [p.y for p in self.points]

    def knee(self) -> int:
        """Size where the log-log slope of the curve increases the most.

        On a latency sweep, the asymptote is slope ~1 (bandwidth bound)
        and the small-message region is flat; the eager -> rendezvous
        switch is the sharpest slope *increase* in between.
        """
        import math

        # slopes between adjacent points with positive sizes and values
        usable = [p for p in self.points if p.x > 0 and p.y > 0]
        if len(usable) < 3:
            return usable[-1].x if usable else self.points[-1].x
        slopes = []
        for a, b in zip(usable, usable[1:]):
            slopes.append(
                (b.x, math.log(b.y / a.y) / math.log(b.x / a.x))
            )
        best_x, best_delta = slopes[0][0], float("-inf")
        for (_xa, sa), (xb, sb) in zip(slopes, slopes[1:]):
            delta = sb - sa
            if delta > best_delta:
                best_delta, best_x = delta, xb
        return best_x


def babelstream_cpu_curve(
    machine: Machine,
    env: OmpEnvironment | None = None,
    sizes: list[int] | None = None,
) -> Curve:
    """Best-op reported bandwidth vs array size."""
    from ..benchmarks.babelstream.sweep import default_cpu_sizes

    if env is None:
        env = table1_configurations(machine.node)[4]  # spread/cores
    sizes = sizes or default_cpu_sizes()
    points = []
    for size in sizes:
        run = run_cpu_config(machine, env, size, rng=None, validate=False)
        points.append(CurvePoint(size, run.best_op()[1]))
    return Curve(machine.name, "BabelStream CPU (best op)", "GB/s",
                 tuple(points))


def babelstream_gpu_curve(
    machine: Machine, sizes: list[int] | None = None, device: int = 0
) -> Curve:
    """Best-op device bandwidth vs array size (launch-bound to plateau)."""
    sizes = sizes or [(1 << p) * 8 for p in range(14, 28)]
    points = []
    for size in sizes:
        run = run_gpu_stream(machine, size, device=device, validate=False)
        points.append(CurvePoint(size, run.best_op()[1]))
    return Curve(machine.name, "BabelStream device (best op)", "GB/s",
                 tuple(points))


def osu_latency_curve(
    machine: Machine,
    buffer: BufferKind = BufferKind.HOST,
    max_bytes: int = 1 << 22,
) -> Curve:
    """osu_latency one-way latency vs message size.

    Host buffers use the on-socket pair; device buffers use the first
    directly-connected device pair (the headline class-A path).
    """
    if buffer == BufferKind.DEVICE:
        from ..mpisim.placement import device_pair

        pair = device_pair(machine, 0, 1)
    else:
        pair = on_socket_pair(machine)
    results = osu_latency_sweep(machine, pair, buffer, max_bytes)
    points = tuple(CurvePoint(r.nbytes, r.latency) for r in results)
    return Curve(machine.name, f"osu_latency ({buffer.value})", "us", points)


def render_curve(curve: Curve, width: int = 42) -> str:
    """ASCII chart: one line per point, bar scaled to the maximum."""
    peak = max(curve.ys())
    lines = [f"{curve.machine}: {curve.label}"]
    for point in curve.points:
        if curve.unit == "GB/s":
            value_text = f"{to_gb_per_s(point.y):9.2f} GB/s"
        else:
            value_text = f"{to_us(point.y):9.3f} us  "
        bar = "#" * max(1, int(width * point.y / peak)) if peak > 0 else ""
        lines.append(f"  {format_bytes(point.x):>10s}  {value_text}  {bar}")
    return "\n".join(lines)
