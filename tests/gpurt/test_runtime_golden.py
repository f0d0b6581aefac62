"""Raw simulated results of the GPU runtime, pinned bit for bit.

Each of the paper's eight GPU machines runs the runtime-level
benchmarks without noise (``rng=None``) and every simulated time is
stored with ``float.hex`` in ``runtime_golden.json``.  The table-level
identity checks see only rounded values, so a change to the order in
which the runtime processes same-time events could hide from them; this
golden cannot.  Regenerate deliberately with::

    PYTHONPATH=src python tests/gpurt/test_runtime_golden.py regen
"""

import json
import pathlib

import pytest

from repro.benchmarks.babelstream.gpu import run_gpu_stream
from repro.benchmarks.commscope.duplex import duplex_gpu_gpu, duplex_host_device
from repro.benchmarks.commscope.launch import launch_latency
from repro.benchmarks.commscope.memcpy_tests import (
    d2d_by_class,
    memcpy_gpu_to_pinned,
    memcpy_pinned_to_gpu,
)
from repro.benchmarks.commscope.sync import sync_latency
from repro.faults.injector import make_injector
from repro.faults.profiles import SMOKE
from repro.gpurt.api import DeviceRuntime
from repro.gpurt.events import DeviceEvent, stream_wait_event
from repro.gpurt.kernel import stream_kernel
from repro.machines.registry import GPU_MACHINE_NAMES, get_machine
from repro.memsys.writealloc import TRIAD

GOLDEN = pathlib.Path(__file__).with_name("runtime_golden.json")

SMALL = 128
LARGE = 1 << 30


def _hex(seconds: float) -> str:
    return float(seconds).hex()


def _by_class(machine, nbytes, injector=None):
    return {
        cls.value: _hex(m.seconds)
        for cls, m in d2d_by_class(machine, nbytes, injector=injector).items()
    }


def _first_pair(machine) -> tuple[int, int]:
    names = machine.node.gpu_names()
    pairs = machine.node.topology.representative_pairs()
    a, b = next(iter(pairs.values()))
    return names.index(a), names.index(b)


def _two_streams(machine) -> dict[str, str]:
    """A kernel and a copy on two streams of device 0, joined by an
    event: the copy stream waits for the kernel, then launches.  The
    copy is the shorter, so its stream's wait and launch queue up
    behind it and the wait holds the launch back."""
    rt = DeviceRuntime(machine)
    dev = rt.devices[0]
    compute, copy = dev.create_stream(), dev.create_stream()
    host_buf = rt.alloc_host(1 << 20, pinned=True)
    dev_buf = rt.alloc_device(0, 1 << 20)
    spec = stream_kernel(TRIAD, 1 << 28)
    done = DeviceEvent(dev)

    def host():
        yield from rt.launch_kernel(spec, device=0, stream=compute)
        yield from rt.memcpy_async(dev_buf, host_buf, stream=copy)
        yield from done.record(compute)
        stream_wait_event(copy, done)
        yield from rt.launch_kernel(spec, device=0, stream=copy)
        yield from rt.device_synchronize(0)
        return rt.env.now

    end = rt.run(host())
    return {"end": _hex(end), "event": _hex(done.timestamp)}


def _peer_disabled(machine) -> str:
    rt = DeviceRuntime(machine)
    rt.disable_peer_access(0, 1)
    src, dst = rt.alloc_device(0, SMALL), rt.alloc_device(1, SMALL)

    def host():
        yield from rt.memcpy_async(dst, src)
        yield from rt.stream_synchronize(0)
        return rt.env.now

    return _hex(rt.run(host()))


def _smoke(machine) -> dict:
    """The injector-armed case: every GPU fault fires (``smoke``)."""
    injector = make_injector(SMOKE, 11).for_cell(machine.name, "golden")
    stream = run_gpu_stream(machine, LARGE, injector=injector)
    return {
        "launch_latency": _hex(launch_latency(machine, injector=injector)),
        "h2d_small": _hex(
            memcpy_pinned_to_gpu(machine, SMALL, injector=injector).seconds
        ),
        "d2d_small": _by_class(machine, SMALL, injector),
        "gpu_stream": {op: _hex(bw) for op, bw in stream.reported.items()},
    }


def machine_snapshot(machine) -> dict:
    a, b = _first_pair(machine)
    stream = run_gpu_stream(machine, LARGE)
    return {
        "launch_latency": _hex(launch_latency(machine)),
        "sync_latency": _hex(sync_latency(machine)),
        "h2d_small": _hex(memcpy_pinned_to_gpu(machine, SMALL).seconds),
        "h2d_large": _hex(memcpy_pinned_to_gpu(machine, LARGE).seconds),
        "d2h_small": _hex(memcpy_gpu_to_pinned(machine, SMALL).seconds),
        "d2h_large": _hex(memcpy_gpu_to_pinned(machine, LARGE).seconds),
        "d2d_small": _by_class(machine, SMALL),
        "d2d_large": _by_class(machine, LARGE),
        "gpu_stream": {op: _hex(bw) for op, bw in stream.reported.items()},
        "duplex_host_device": _hex(duplex_host_device(machine, LARGE).seconds),
        "duplex_gpu_gpu": {
            "pair": [a, b],
            "seconds": _hex(duplex_gpu_gpu(machine, a, b, LARGE).seconds),
        },
        "two_streams": _two_streams(machine),
        "peer_disabled_small": _peer_disabled(machine),
        "smoke": _smoke(machine),
    }


def registry_snapshot() -> dict:
    return {
        name: machine_snapshot(get_machine(name)) for name in GPU_MACHINE_NAMES
    }


class TestRuntimeGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_golden_covers_the_gpu_machines(self, golden):
        assert list(golden) == list(GPU_MACHINE_NAMES)

    @pytest.mark.parametrize("name", GPU_MACHINE_NAMES)
    def test_machine_matches_golden(self, name, golden):
        assert machine_snapshot(get_machine(name)) == golden[name]


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        GOLDEN.write_text(json.dumps(registry_snapshot(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
