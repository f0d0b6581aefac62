"""Device events (cudaEvent / hipEvent equivalents).

Events are recorded into a stream, capture the simulated device time
when the preceding work completes, and support host synchronisation and
``elapsed_time`` queries — what the real BabelStream CUDA backend uses
for device-side timing, and a building block for overlap studies.
"""

from __future__ import annotations

from dataclasses import field
from typing import TYPE_CHECKING, Generator, Optional

from .._dataclass import dataclass
from ..errors import GpuRuntimeError
from .stream import Command, Stream

if TYPE_CHECKING:  # pragma: no cover
    from .api import Device

#: Host cost of recording an event (driver call), seconds.
EVENT_RECORD_OVERHEAD = 0.4e-6


@dataclass(slots=True)
class EventMarkerCommand(Command):
    """Queue marker: completes instantly, stamping the device clock."""

    event: "DeviceEvent" = None  # type: ignore[assignment]

    def execute(self, device: "Device") -> Generator:
        self.event._timestamp = device.env.now
        return
        yield  # pragma: no cover - generator for interface symmetry


class DeviceEvent:
    """One recordable device event."""

    __slots__ = ("device", "_timestamp", "_marker")

    def __init__(self, device: "Device") -> None:
        self.device = device
        self._timestamp: Optional[float] = None
        self._marker: Optional[EventMarkerCommand] = None

    @property
    def recorded(self) -> bool:
        return self._marker is not None

    @property
    def complete(self) -> bool:
        return self._timestamp is not None

    @property
    def timestamp(self) -> float:
        if self._timestamp is None:
            raise GpuRuntimeError("event has not completed")
        return self._timestamp

    def record(self, stream: Optional[Stream] = None) -> Generator:
        """Enqueue the marker behind current stream work (cudaEventRecord)."""
        stream = stream or self.device.default_stream
        if stream.device is not self.device:
            raise GpuRuntimeError("event recorded on a foreign device's stream")
        yield self.device.env.timeout(EVENT_RECORD_OVERHEAD)
        self._timestamp = None
        marker = EventMarkerCommand(
            completion=self.device.env.event(), event=self
        )
        stream.enqueue(marker)
        self._marker = marker

    def synchronize(self) -> Generator:
        """Block the host until the event completes (cudaEventSynchronize)."""
        if self._marker is None:
            raise GpuRuntimeError("synchronizing an unrecorded event")
        if self._marker.completion.callbacks is not None:
            yield self._marker.completion
        if False:  # pragma: no cover - keeps this a generator when no wait
            yield

    def elapsed_since(self, start: "DeviceEvent") -> float:
        """Seconds between two completed events (cudaEventElapsedTime)."""
        if not start.complete or not self.complete:
            raise GpuRuntimeError("elapsed_since needs two completed events")
        return self.timestamp - start.timestamp


@dataclass(slots=True)
class WaitEventCommand(Command):
    """Stream barrier: holds the stream until an event completes
    (cudaStreamWaitEvent).  Cross-stream and cross-device dependencies
    are built from this."""

    event: "DeviceEvent" = None  # type: ignore[assignment]

    def execute(self, device: "Device") -> Generator:
        marker = self.event._marker
        if marker is None:
            raise GpuRuntimeError("waiting on an unrecorded event")
        if marker.completion.callbacks is not None:
            yield marker.completion


def stream_wait_event(stream: Stream, event: DeviceEvent) -> None:
    """Enqueue a wait for ``event`` into ``stream`` (device-side, free
    on the host like the real API)."""
    if not event.recorded:
        raise GpuRuntimeError("stream_wait_event needs a recorded event")
    stream.enqueue(
        WaitEventCommand(completion=stream.env.event(), event=event)
    )
