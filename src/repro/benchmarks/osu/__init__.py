"""OSU Micro-Benchmarks 7.1.1 reimplementation (pt2pt).

``osu_latency`` is the test the paper reports: a ping-pong between two
ranks, averaged over 1000 iterations for small messages and 100 for
large ones (the suite defaults, which the paper keeps).  ``osu_bw`` and
``osu_bibw`` are provided as extensions using the same machinery.
"""

from ... import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".latency": ("LatencyResult", "osu_latency", "osu_latency_sweep"),
    ".bandwidth": ("BandwidthResult", "osu_bw", "osu_bibw"),
    ".runner": ("PairKind", "latency_for_pair", "device_latency_by_class"),
})
