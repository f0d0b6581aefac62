"""The paper's published measurements (Tables 4-7), held out for comparison.

Units follow the paper: bandwidths in GB/s, latencies in microseconds.
Each entry is ``(mean, std)``.  These values are **reference data only**
— the simulators never read them.  :func:`paper_cells` is the one walk
over Tables 4-6: ``compare`` and the ``check`` suite both read it.
"""

from __future__ import annotations

from typing import Iterator

from ..hardware.topology import LinkClass

A, B, C, D = LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D

#: Table 4 — CPU machines: single/all bandwidth, on-socket/on-node latency.
PAPER_TABLE4: dict[str, dict[str, tuple[float, float]]] = {
    "Trinity": {
        "single": (12.36, 0.16), "all": (347.28, 5.76),
        "on_socket": (0.67, 0.01), "on_node": (0.99, 0.01),
    },
    "Theta": {
        "single": (18.76, 0.58), "all": (119.72, 0.54),
        "on_socket": (5.95, 0.01), "on_node": (6.25, 0.05),
    },
    "Sawtooth": {
        "single": (13.06, 0.35), "all": (238.70, 8.39),
        "on_socket": (0.48, 0.01), "on_node": (0.48, 0.01),
    },
    "Eagle": {
        "single": (13.45, 0.03), "all": (208.24, 0.92),
        "on_socket": (0.17, 0.00), "on_node": (0.38, 0.01),
    },
    "Manzano": {
        "single": (15.27, 0.05), "all": (234.86, 0.12),
        "on_socket": (0.32, 0.00), "on_node": (0.56, 0.01),
    },
}

#: Table 5 — GPU machines: device bandwidth, host MPI latency, device MPI
#: latency per link class.
PAPER_TABLE5: dict[str, dict] = {
    "Frontier": {
        "device_bw": (1336.35, 1.11), "host": (0.45, 0.01),
        "d2d": {A: (0.44, 0.00), B: (0.44, 0.00), C: (0.44, 0.00), D: (0.44, 0.00)},
    },
    "Summit": {
        "device_bw": (786.43, 0.11), "host": (0.34, 0.07),
        "d2d": {A: (18.10, 0.22), B: (19.30, 0.15)},
    },
    "Sierra": {
        "device_bw": (861.40, 0.65), "host": (0.38, 0.01),
        "d2d": {A: (18.72, 0.12), B: (19.76, 0.37)},
    },
    "Perlmutter": {
        "device_bw": (1363.74, 0.23), "host": (0.46, 0.06),
        "d2d": {A: (13.50, 0.13)},
    },
    "Polaris": {
        "device_bw": (1362.75, 0.17), "host": (0.21, 0.00),
        "d2d": {A: (10.42, 0.03)},
    },
    "Lassen": {
        "device_bw": (861.03, 0.53), "host": (0.37, 0.00),
        "d2d": {A: (18.68, 0.20), B: (19.72, 0.13)},
    },
    "RZVernal": {
        "device_bw": (1291.38, 0.77), "host": (0.49, 0.00),
        "d2d": {A: (0.50, 0.01), B: (0.50, 0.01), C: (0.50, 0.00), D: (0.49, 0.01)},
    },
    "Tioga": {
        "device_bw": (1336.81, 0.97), "host": (0.49, 0.00),
        "d2d": {A: (0.50, 0.00), B: (0.50, 0.00), C: (0.50, 0.00), D: (0.49, 0.01)},
    },
}

#: Table 6 — Comm|Scope: launch/wait, averaged H<->D latency/bandwidth,
#: device-to-device latency per link class.
PAPER_TABLE6: dict[str, dict] = {
    "Frontier": {
        "launch": (1.51, 0.00), "wait": (0.14, 0.00),
        "hd_lat": (12.91, 0.02), "hd_bw": (24.87, 0.01),
        "d2d": {A: (12.02, 0.05), B: (12.56, 0.03), C: (12.68, 0.02), D: (12.02, 0.10)},
    },
    "Summit": {
        "launch": (4.84, 0.01), "wait": (4.31, 0.01),
        "hd_lat": (7.82, 0.07), "hd_bw": (44.88, 0.00),
        "d2d": {A: (24.97, 0.16), B: (27.44, 0.14)},
    },
    "Sierra": {
        "launch": (4.13, 0.01), "wait": (5.59, 0.02),
        "hd_lat": (7.27, 0.23), "hd_bw": (63.40, 0.01),
        "d2d": {A: (23.91, 0.16), B: (27.70, 0.12)},
    },
    "Perlmutter": {
        "launch": (1.77, 0.01), "wait": (0.98, 0.00),
        "hd_lat": (4.24, 0.01), "hd_bw": (24.74, 0.00),
        "d2d": {A: (14.74, 0.41)},
    },
    "Polaris": {
        "launch": (1.83, 0.00), "wait": (1.32, 0.01),
        "hd_lat": (5.33, 0.02), "hd_bw": (23.71, 0.00),
        "d2d": {A: (32.84, 0.30)},
    },
    "Lassen": {
        "launch": (4.56, 0.00), "wait": (5.52, 0.01),
        "hd_lat": (7.76, 0.32), "hd_bw": (63.34, 0.02),
        "d2d": {A: (24.56, 0.28), B: (27.69, 0.10)},
    },
    "RZVernal": {
        "launch": (2.16, 0.01), "wait": (0.12, 0.00),
        "hd_lat": (12.20, 0.07), "hd_bw": (24.88, 0.00),
        "d2d": {A: (9.85, 0.01), B: (12.58, 0.00), C: (12.45, 0.02), D: (10.21, 0.01)},
    },
    "Tioga": {
        "launch": (2.15, 0.01), "wait": (0.12, 0.00),
        "hd_lat": (12.19, 0.04), "hd_bw": (24.88, 0.00),
        "d2d": {A: (9.85, 0.02), B: (12.59, 0.01), C: (12.46, 0.01), D: (10.12, 0.02)},
    },
}


def paper_cells() -> Iterator[tuple[str, float, float]]:
    """Every cell of Tables 4-6 as ``(path, mean, std)``, in the paper's
    order, addressed as :class:`~repro.checks.extract.TableSource` reads
    it (``table4.trinity.single``); one ``d2d`` cell per link class."""
    for table, data in (("table4", PAPER_TABLE4), ("table5", PAPER_TABLE5),
                        ("table6", PAPER_TABLE6)):
        for machine, cells in data.items():
            for cell, value in cells.items():
                path = f"{table}.{machine.lower()}.{cell}"
                if cell == "d2d":
                    for cls, (mean, std) in value.items():
                        yield f"{path}.{cls.value}", mean, std
                else:
                    yield (path, *value)


#: Table 7 — (low, high) ranges per accelerator family.
PAPER_TABLE7: dict[str, dict[str, tuple[float, float]]] = {
    "V100": {
        "memory_bw": (786.43, 861.40), "mpi_latency": (18.10, 18.72),
        "kernel_launch": (4.13, 4.84), "kernel_wait": (4.31, 5.59),
        "hd_latency": (7.27, 7.82), "hd_bandwidth": (44.88, 63.40),
        "d2d_latency": (23.91, 24.97),
    },
    "A100": {
        "memory_bw": (1362.75, 1363.74), "mpi_latency": (10.42, 13.50),
        "kernel_launch": (1.77, 1.83), "kernel_wait": (0.98, 1.32),
        "hd_latency": (4.24, 5.33), "hd_bandwidth": (23.71, 24.74),
        "d2d_latency": (14.74, 32.84),
    },
    "MI250X": {
        "memory_bw": (1291.38, 1336.81), "mpi_latency": (0.44, 0.50),
        "kernel_launch": (1.51, 2.16), "kernel_wait": (0.12, 0.14),
        "hd_latency": (12.19, 12.91), "hd_bandwidth": (24.87, 24.88),
        "d2d_latency": (9.85, 12.02),
    },
}
