"""The :class:`Machine` record: one row of the paper's Tables 2/3."""

from __future__ import annotations

import enum

from .._dataclass import dataclass
from ..errors import HardwareConfigError
from ..hardware.node import NodeSpec
from .calibration import MachineCalibration
from .software import SoftwareEnvironment


class MachineClass(enum.Enum):
    """The paper's top-level split (section 3)."""

    CPU = "non-accelerator"
    GPU = "accelerator"


@dataclass(frozen=True)
class Machine:
    """One measured system."""

    name: str
    rank: int                       # June 2023 Top500 rank
    location: str                   # hosting laboratory
    node: NodeSpec
    software: SoftwareEnvironment
    calibration: MachineCalibration
    #: label of the "Peak" bandwidth column as the paper prints it
    peak_label: str = ""
    #: footnotes (e.g. Perlmutter's 40 GB A100 remark)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise HardwareConfigError(f"invalid Top500 rank: {self.rank}")
        self.node.validate()
        if self.node.has_gpus:
            if self.calibration.gpu_runtime is None:
                raise HardwareConfigError(
                    f"{self.name}: accelerator machine needs gpu_runtime calibration"
                )
        else:
            if self.calibration.cpu_stream is None:
                raise HardwareConfigError(
                    f"{self.name}: CPU machine needs cpu_stream calibration"
                )
        if self.calibration.mpi is None:
            raise HardwareConfigError(f"{self.name}: needs mpi calibration")
        # repro.gpurt.memcpy.plan_copy's plans by endpoint pair.  Plans
        # read the calibration as well as the node, and
        # dataclasses.replace(machine, calibration=...) shares the node,
        # so the machine keeps them.  A plain attribute, not a field:
        # repr, equality and fingerprints never see it.
        object.__setattr__(self, "_copy_plans", {})

    @property
    def machine_class(self) -> MachineClass:
        return MachineClass.GPU if self.node.has_gpus else MachineClass.CPU

    @property
    def cpu_model(self) -> str:
        return self.node.cpu.model

    @property
    def accelerator_model(self) -> str:
        if not self.node.has_gpus:
            return ""
        return self.node.gpus[0].model

    @property
    def accelerator_family(self) -> str:
        if not self.node.has_gpus:
            return ""
        return self.node.gpus[0].family.value

    def ranked_name(self) -> str:
        """The paper's row label, e.g. ``"1. Frontier"``."""
        return f"{self.rank}. {self.name}"
