"""Release self-check: validate the whole model zoo in one pass.

``python -m repro selfcheck`` runs every structural invariant that does
not need a study: node validation, topology classification coverage,
calibration sanity (efficiencies below 1, latencies positive, paper
anomalies flagged where documented), fabric coverage, kernel
correctness, and registry completeness.  Returns a list of findings;
empty means healthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchmarks.babelstream.kernels import StreamArrays
from ..hardware.topology import LinkClass
from ..machines.registry import all_machines, cpu_machines, gpu_machines
from ..netsim.fabric import FABRIC_CATALOG


@dataclass(frozen=True)
class Finding:
    """One self-check complaint."""

    machine: str
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.machine}] {self.check}: {self.detail}"


def check_registry() -> list[Finding]:
    out = []
    machines = all_machines()
    if len(machines) != 13:
        out.append(Finding("-", "registry", f"expected 13 machines, "
                           f"got {len(machines)}"))
    ranks = [m.rank for m in machines]
    if len(set(ranks)) != len(ranks):
        out.append(Finding("-", "registry", "duplicate Top500 ranks"))
    return out


def check_nodes() -> list[Finding]:
    out = []
    for m in all_machines():
        try:
            m.node.validate()
        except Exception as exc:  # pragma: no cover - healthy registry
            out.append(Finding(m.name, "node", str(exc)))
    return out


def check_topologies() -> list[Finding]:
    out = []
    expected_classes = {
        "Frontier": {LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D},
        "RZVernal": {LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D},
        "Tioga": {LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D},
        "Summit": {LinkClass.A, LinkClass.B},
        "Sierra": {LinkClass.A, LinkClass.B},
        "Lassen": {LinkClass.A, LinkClass.B},
        "Perlmutter": {LinkClass.A},
        "Polaris": {LinkClass.A},
    }
    for m in gpu_machines():
        classes = set(m.node.topology.gpu_pair_classes())
        if classes != expected_classes[m.name]:
            out.append(Finding(
                m.name, "topology",
                f"pair classes {sorted(c.value for c in classes)} != "
                f"paper's {sorted(c.value for c in expected_classes[m.name])}"
            ))
        # every pair classified, none twice
        n = m.node.n_gpus
        total = sum(len(v) for v in m.node.topology.gpu_pair_classes().values())
        if total != n * (n - 1) // 2:
            out.append(Finding(m.name, "topology", "unclassified GPU pairs"))
    return out


def check_calibrations() -> list[Finding]:
    out = []
    for m in gpu_machines():
        cal = m.calibration.gpu_runtime
        if not 0.5 < cal.stream_efficiency < 1.0:
            out.append(Finding(m.name, "calibration",
                               f"stream efficiency {cal.stream_efficiency}"))
        if cal.launch_overhead <= 0 or cal.sync_overhead <= 0:
            out.append(Finding(m.name, "calibration", "non-positive overheads"))
    for m in cpu_machines():
        cal = m.calibration.cpu_stream
        anomalous = cal.anomaly_factor < 1.0
        if anomalous != (m.name == "Theta"):
            out.append(Finding(
                m.name, "calibration",
                "anomaly factor set on the wrong machine "
                "(the paper documents only Theta's)",
            ))
    return out


def check_fabrics() -> list[Finding]:
    out = []
    for m in all_machines():
        if m.name not in FABRIC_CATALOG:
            out.append(Finding(m.name, "fabric", "no interconnect recorded"))
    return out


def check_kernels() -> list[Finding]:
    out = []
    arrays = StreamArrays(4096)
    arrays.run_all(repetitions=2)
    arrays.dot()
    if not arrays.check_solution(repetitions=2):
        out.append(Finding("-", "babelstream", "kernel validation failed"))
    return out


ALL_CHECKS = (
    check_registry,
    check_nodes,
    check_topologies,
    check_calibrations,
    check_fabrics,
    check_kernels,
)


def run_selfcheck() -> list[Finding]:
    """Run every check; returns all findings (empty = healthy)."""
    findings: list[Finding] = []
    for check in ALL_CHECKS:
        findings.extend(check())
    return findings


def render_selfcheck(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"self-check passed: {len(all_machines())} machines, "
            f"{len(ALL_CHECKS)} check families, no findings"
        )
    return "\n".join(str(f) for f in findings)
