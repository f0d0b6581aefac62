"""Regression pins for the one shared direction-of-goodness rule.

``compare``, the study ledger and the checks all call
:func:`repro.analysis.metrics.better_direction` to tell
bandwidth-higher from latency-lower.  These pins freeze the inferred
direction for every metric name any gate can see — including those of
the committed ``BENCH_*.json`` files and of ledgered ``bench`` runs,
which ``runs diff`` still compares — so a future tweak to the inference
tokens cannot silently flip a gate.
"""

import pytest

from repro.analysis.metrics import better_direction

pytestmark = pytest.mark.checks

#: every gating metric name in the committed BENCH_*.json -> direction
BENCH_GATED = {
    "sim.latency_us": "lower",
    "sim.h2d_us": "lower",
    "sim.launch_us": "lower",
    "sim.table4.on_socket_us": "lower",
    "sim.table4.on_node_us": "lower",
}

#: their advisory (never-gating) metrics
BENCH_ADVISORY = {
    "wall_seconds": "lower",
    "events_per_sec": "higher",
    "parallel.workers": "higher",
    "parallel.cell_wall_mean_s": "lower",
    "parallel.cell_wall_max_s": "lower",
    "supervisor.retries": "lower",
    "supervisor.pool_rebuilds": "lower",
}

#: extractor paths of the committed paper-reference suite
CHECK_PATHS = {
    "table4.trinity.single": "higher",
    "table4.trinity.all": "higher",
    "table4.trinity.on_socket": "lower",
    "table4.trinity.on_node": "lower",
    "table5.frontier.device_bw": "higher",
    "table5.frontier.host": "lower",
    "table5.frontier.d2d.A": "lower",
    "table6.frontier.launch": "lower",
    "table6.frontier.wait": "lower",
    "table6.frontier.hd_lat": "lower",
    "table6.frontier.hd_bw": "higher",
    "table6.frontier.d2d.D": "lower",
}


@pytest.mark.parametrize(
    "name,direction",
    sorted({**BENCH_GATED, **BENCH_ADVISORY, **CHECK_PATHS}.items()),
)
def test_pinned_direction(name, direction):
    assert better_direction(name) == direction


def test_alltoall_cannot_ride_the_all_token():
    """Token matching, not substring: a future alltoall latency metric
    must stay lower-better despite containing the letters 'all'."""
    assert better_direction("sim.frontier/osu/alltoall") == "lower"
    assert better_direction("metrics:sim.alltoall_us") == "lower"


def test_study_summary_rows_use_the_shared_rule(fast_study):
    """Every gated row the study ledger emits agrees with the shared
    inference — the ledger can never drift from the checks gate."""
    from repro.core.tables import build_table4, build_table5, build_table6
    from repro.machines.registry import cpu_machines, gpu_machines

    build_table4(fast_study, cpu_machines())
    build_table5(fast_study, gpu_machines())
    build_table6(fast_study, gpu_machines())
    summary = fast_study.outcome_summary()
    assert summary, "study produced no metric rows"
    for name, row in summary.items():
        assert row["better"] == better_direction(name), name
        # and the paper's semantics hold: babelstream/bandwidth rows
        # are the only higher-better quantities the study emits
        if "babelstream" in name or "bandwidth" in name:
            assert row["better"] == "higher", name
        elif "/osu/" in name or "/cs/" in name and "bandwidth" not in name:
            assert row["better"] == "lower", name

