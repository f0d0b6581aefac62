"""Asynchronous memcpy cost planning over the node topology.

``plan_copy`` resolves a (src, dst) buffer pair against the machine's
topology and calibration into a :class:`CopyPlan`: the DMA latency
constant (command issue through completion for a minimal transfer), the
sustained bandwidth for the bulk bytes, and the component route taken.

The latency constants are per-runtime-generation calibrations; the
*bandwidth* side is physical: bottleneck link along the route times a
protocol efficiency.  Device-pair classes (A/B/C/D) come from
:meth:`repro.hardware.topology.Topology.classify_gpu_pair`.
"""

from __future__ import annotations

import enum

from .._dataclass import dataclass
from ..errors import GpuRuntimeError, PinnedMemoryError
from ..hardware.topology import LinkClass, PairClassification
from ..machines.base import Machine
from .buffers import Buffer, DeviceBuffer, HostBuffer

#: Extra staging cost for pageable host memory (the driver bounce-buffers
#: through an internal pinned pool).  Comm|Scope always pins, so this only
#: matters to user code that forgets to.
PAGEABLE_LATENCY_PENALTY = 6.0e-6
PAGEABLE_BANDWIDTH_FACTOR = 0.55


class CopyKind(enum.Enum):
    H2D = "host-to-device"
    D2H = "device-to-host"
    D2D = "device-to-device"
    H2H = "host-to-host"


@dataclass(frozen=True)
class CopyPlan:
    """Resolved cost model for one copy."""

    kind: CopyKind
    #: issue-through-completion cost of a minimal transfer, seconds
    latency: float
    #: sustained bandwidth for the bulk bytes, bytes/second
    bandwidth: float
    #: component route (endpoint names included)
    route: tuple[str, ...]
    #: device-pair classification for D2D copies, else None
    classification: PairClassification | None = None

    def duration(self, nbytes: int) -> float:
        """Wall time from issue to completion for ``nbytes``."""
        if nbytes < 0:
            raise GpuRuntimeError(f"negative copy size: {nbytes}")
        return self.latency + nbytes / self.bandwidth


def _gpu_component(machine: Machine, device: int) -> str:
    names = machine.node.gpu_names()
    if not 0 <= device < len(names):
        raise GpuRuntimeError(
            f"device {device} out of range on {machine.name} ({len(names)} devices)"
        )
    return names[device]


def _host_component(machine: Machine, numa_node: int, gpu: str) -> str:
    """The CPU socket whose memory holds the host buffer's pages.

    Falls back to the GPU's home socket when the requested NUMA node
    does not exist as a topology component (single-socket nodes).
    """
    topo = machine.node.topology
    if numa_node >= machine.node.n_sockets:
        raise GpuRuntimeError(
            f"NUMA node {numa_node} out of range on {machine.name} "
            f"({machine.node.n_sockets} sockets)"
        )
    for cpu in topo.cpus():
        if topo.component(cpu).socket == numa_node:
            return cpu
    return topo.host_of_gpu(gpu)


#: extra staging cost when peer access is NOT enabled between two
#: devices: the copy bounces through a host buffer (two PCIe-class
#: transfers plus driver coordination)
PEER_DISABLED_LATENCY_PENALTY = 8.0e-6


def plan_copy(
    machine: Machine, src: Buffer, dst: Buffer, *, require_pinned: bool = True,
    peer_enabled: bool = True,
) -> CopyPlan:
    """The :class:`CopyPlan` for ``src`` -> ``dst`` on ``machine``.

    ``peer_enabled`` mirrors cudaDeviceEnablePeerAccess state for D2D
    copies: without it the driver stages through host memory, paying
    two host-link transfers instead of the direct fabric path.

    A plan never depends on the transfer size, so ``machine`` keeps one
    (frozen) plan per pair of endpoints, pinned rule and peer state.
    """
    key = (_endpoint(src), _endpoint(dst), require_pinned, peer_enabled)
    plan = machine._copy_plans.get(key)
    if plan is None:
        plan = machine._copy_plans[key] = _build_plan(
            machine, src, dst, require_pinned, peer_enabled
        )
    return plan


def _endpoint(buffer: Buffer):
    """What a plan reads of a buffer: its device index, or the host
    pages' pinned flag and NUMA node."""
    if isinstance(buffer, DeviceBuffer):
        return buffer.device
    return (buffer.pinned, buffer.numa_node)


def _build_plan(
    machine: Machine, src: Buffer, dst: Buffer, require_pinned: bool,
    peer_enabled: bool,
) -> CopyPlan:
    cal = machine.calibration.gpu_runtime
    if cal is None:
        raise GpuRuntimeError(f"{machine.name} has no GPU runtime calibration")
    topo = machine.node.topology

    src_dev = isinstance(src, DeviceBuffer)
    dst_dev = isinstance(dst, DeviceBuffer)

    if src_dev and dst_dev:
        a = _gpu_component(machine, src.device)
        b = _gpu_component(machine, dst.device)
        if a == b:
            # same-device copy: HBM-to-HBM blit
            bandwidth = machine.node.gpu_spec(src.device).peak_bandwidth / 2
            return CopyPlan(CopyKind.D2D, cal.d2d_base, bandwidth, (a,))
        cls = topo.classify_gpu_pair(a, b)
        if not peer_enabled:
            # bounce through the host: src -> its CPU -> dst
            cpu = topo.host_of_gpu(a)
            route = tuple(topo.route(a, cpu)[:-1]) + tuple(topo.route(cpu, b))
            latency = cal.d2d_base + PEER_DISABLED_LATENCY_PENALTY
            bandwidth = (
                min(
                    topo.path_bandwidth(topo.route(a, cpu)),
                    topo.path_bandwidth(topo.route(cpu, b)),
                )
                * cal.h2d_bw_efficiency / 2  # store-and-forward halves it
            )
            return CopyPlan(CopyKind.D2D, latency, bandwidth, route, cls)
        latency = cal.d2d_base + cal.class_extra(cls.link_class)
        bandwidth = topo.path_bandwidth(cls.route) * cal.d2d_bw_efficiency
        return CopyPlan(CopyKind.D2D, latency, bandwidth, cls.route, cls)

    if src_dev != dst_dev:
        host_buf = dst if src_dev else src
        assert isinstance(host_buf, HostBuffer)
        device = src.device if src_dev else dst.device  # type: ignore[union-attr]
        gpu = _gpu_component(machine, device)
        cpu = _host_component(machine, host_buf.numa_node, gpu)
        route = topo.route(cpu, gpu)
        kind = CopyKind.D2H if src_dev else CopyKind.H2D
        latency = cal.d2h_latency if src_dev else cal.h2d_latency
        # far-NUMA buffers pay the extra fabric hops on top of the
        # calibrated home-socket DMA latency
        home_route = topo.route(topo.host_of_gpu(gpu), gpu)
        if route != home_route:
            latency += topo.path_latency(route) - topo.path_latency(home_route)
        bandwidth = topo.path_bandwidth(route) * cal.h2d_bw_efficiency
        if not host_buf.pinned:
            if require_pinned:
                raise PinnedMemoryError(
                    f"{kind.value} async copy requires a page-locked host buffer"
                )
            latency += PAGEABLE_LATENCY_PENALTY
            bandwidth *= PAGEABLE_BANDWIDTH_FACTOR
        return CopyPlan(kind, latency, bandwidth, route)

    # host-to-host: a memcpy through the socket's memory system
    bandwidth = machine.node.cpu.memory.peak_bandwidth / 2
    return CopyPlan(CopyKind.H2H, 0.3e-6, bandwidth, ("cpu0",))


def classify_d2d(machine: Machine, src_device: int, dst_device: int) -> LinkClass:
    """Convenience: the paper's link class of a device pair."""
    a = _gpu_component(machine, src_device)
    b = _gpu_component(machine, dst_device)
    return machine.node.topology.classify_gpu_pair(a, b).link_class
