"""Software environments of the measured machines (paper Tables 8 and 9).

The compiler / device-library / MPI versions matter to the model: the
paper attributes the Perlmutter-vs-Polaris device-copy latency gap to
driver generations, and kernel-launch costs track the CUDA/ROCm version.
"""

from __future__ import annotations

import enum

from .._dataclass import dataclass


class MpiFlavor(enum.Enum):
    CRAY_MPICH = "cray-mpich"
    INTEL_MPI = "intel-mpi"
    OPENMPI = "openmpi"
    SPECTRUM_MPI = "spectrum-mpi"


class DeviceRuntimeFamily(enum.Enum):
    NONE = "none"
    CUDA = "cuda"
    ROCM = "rocm"


@dataclass(frozen=True)
class SoftwareEnvironment:
    """Default environment used on one machine (Tables 8/9)."""

    compiler: str
    mpi: str
    mpi_flavor: MpiFlavor
    device_library: str = ""
    device_runtime: DeviceRuntimeFamily = DeviceRuntimeFamily.NONE

    @property
    def device_runtime_version(self) -> tuple[int, ...]:
        """Numeric version of the device library (e.g. (11, 4) for cuda/11.4)."""
        if not self.device_library:
            return ()
        ver = self.device_library.split("/", 1)[-1]
        parts = []
        for tok in ver.split("."):
            digits = "".join(ch for ch in tok if ch.isdigit())
            if not digits:
                break
            parts.append(int(digits))
        return tuple(parts)


# -- Table 8: non-accelerator machines --------------------------------------

TRINITY_ENV = SoftwareEnvironment(
    compiler="intel/2022.0.2", mpi="cray-mpich/7.7.20", mpi_flavor=MpiFlavor.CRAY_MPICH
)
THETA_ENV = SoftwareEnvironment(
    compiler="intel/19.1.0.166", mpi="cray-mpich/7.7.14", mpi_flavor=MpiFlavor.CRAY_MPICH
)
SAWTOOTH_ENV = SoftwareEnvironment(
    compiler="intel/19.0.5", mpi="intel-mpi/2019.0.117", mpi_flavor=MpiFlavor.INTEL_MPI
)
EAGLE_ENV = SoftwareEnvironment(
    compiler="gcc/8.4.0", mpi="openmpi/4.1.0", mpi_flavor=MpiFlavor.OPENMPI
)
MANZANO_ENV = SoftwareEnvironment(
    compiler="intel/16.0", mpi="openmpi/1.10", mpi_flavor=MpiFlavor.OPENMPI
)

# -- Table 9: accelerator machines -------------------------------------------

FRONTIER_ENV = SoftwareEnvironment(
    compiler="amd-mixed/5.3.0",
    mpi="cray-mpich/8.1.23",
    mpi_flavor=MpiFlavor.CRAY_MPICH,
    device_library="amd-mixed/5.3.0",
    device_runtime=DeviceRuntimeFamily.ROCM,
)
SUMMIT_ENV = SoftwareEnvironment(
    compiler="xl/16.1.1-10",
    mpi="spectrum-mpi/10.4.0.3-20210112",
    mpi_flavor=MpiFlavor.SPECTRUM_MPI,
    device_library="cuda/11.0.3",
    device_runtime=DeviceRuntimeFamily.CUDA,
)
SIERRA_ENV = SoftwareEnvironment(
    compiler="gcc/8.3.1",
    mpi="spectrum-mpi/rolling-release",
    mpi_flavor=MpiFlavor.SPECTRUM_MPI,
    device_library="cuda/10.1.243",
    device_runtime=DeviceRuntimeFamily.CUDA,
)
PERLMUTTER_ENV = SoftwareEnvironment(
    compiler="gcc/11.2.0",
    mpi="cray-mpich/8.1.25",
    mpi_flavor=MpiFlavor.CRAY_MPICH,
    device_library="cuda/11.7",
    device_runtime=DeviceRuntimeFamily.CUDA,
)
POLARIS_ENV = SoftwareEnvironment(
    compiler="nvhpc/21.9",
    mpi="cray-mpich/8.1.16",
    mpi_flavor=MpiFlavor.CRAY_MPICH,
    device_library="cuda/11.4",
    device_runtime=DeviceRuntimeFamily.CUDA,
)
LASSEN_ENV = SoftwareEnvironment(
    compiler="gcc/7.3.1",
    mpi="spectrum-mpi/rolling-release",
    mpi_flavor=MpiFlavor.SPECTRUM_MPI,
    device_library="cuda/10.1.243",
    device_runtime=DeviceRuntimeFamily.CUDA,
)
RZVERNAL_ENV = SoftwareEnvironment(
    compiler="amd/5.6.0",
    mpi="cray-mpich/8.1.26",
    mpi_flavor=MpiFlavor.CRAY_MPICH,
    device_library="amd/5.6.0",
    device_runtime=DeviceRuntimeFamily.ROCM,
)
TIOGA_ENV = RZVERNAL_ENV
