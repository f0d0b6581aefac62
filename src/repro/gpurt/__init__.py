"""Simulated GPU runtime (CUDA/HIP-flavoured).

The runtime exposes the handful of primitives Comm|Scope and the
BabelStream device backend need, with the same semantics as the real
APIs:

* devices with command streams (in-order queues drained by a simulated
  command processor);
* asynchronous kernel launches, whose *host-side* cost is the launch
  latency Comm|Scope's ``Comm_cudart_kernel`` test measures;
* ``device_synchronize`` with an empty-queue fast path (the
  ``Comm_cudaDeviceSynchronize`` test);
* asynchronous memcpy executed by DMA engines over the node topology,
  requiring page-locked host buffers (as Comm|Scope ensures).

Host code runs as simulation processes; every API entry point is a
generator to be ``yield from``-ed inside one.
"""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".buffers": ("Buffer", "DeviceBuffer", "HostBuffer"),
    ".kernel": ("KernelSpec", "EMPTY_KERNEL", "stream_kernel"),
    ".memcpy": ("CopyKind", "CopyPlan", "plan_copy"),
    ".stream": ("Command", "CopyCommand", "KernelCommand", "Stream"),
    ".events": ("DeviceEvent",),
    ".api": ("DeviceRuntime", "Device"),
})
