"""Experiment specifications: DESIGN.md's per-experiment index, in code.

Each :class:`ExperimentSpec` names one paper artifact (or extension),
what it reports, and the callable that regenerates it — so tooling can
enumerate coverage ("is every table wired to a runner?") instead of
trusting documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import BenchmarkConfigError
from .study import Study


@dataclass(frozen=True)
class ExperimentSpec:
    """One regenerable experiment."""

    experiment_id: str          # e.g. "table4", "figure1", "ext-internode"
    title: str
    paper_section: str          # where the artifact appears
    is_extension: bool
    runner: Callable[[Study], str]

    def run(self, study: Study | None = None) -> str:
        return self.runner(study or Study())


def _registry() -> dict[str, ExperimentSpec]:
    # imported lazily: the harness imports core
    from ..harness.cli import run_target

    def via_cli(target: str) -> Callable[[Study], str]:
        return lambda study: run_target(target, study)

    specs = [
        ExperimentSpec("table1", "OpenMP configuration sweep",
                       "section 3.1, Table 1", False, via_cli("table1")),
        ExperimentSpec("table2", "Non-accelerator system inventory",
                       "section 4, Table 2", False, via_cli("table2")),
        ExperimentSpec("table3", "Accelerator system inventory",
                       "section 4, Table 3", False, via_cli("table3")),
        ExperimentSpec("table4", "CPU bandwidth and MPI latency",
                       "section 4, Table 4", False, via_cli("table4")),
        ExperimentSpec("table5", "Device bandwidth and MPI latency",
                       "section 4, Table 5", False, via_cli("table5")),
        ExperimentSpec("table6", "Comm|Scope launch/wait/memcpy",
                       "section 4, Table 6", False, via_cli("table6")),
        ExperimentSpec("table7", "Per-family ranges",
                       "section 4, Table 7", False, via_cli("table7")),
        ExperimentSpec("table8", "CPU software environments",
                       "Appendix A, Table 8", False, via_cli("table8")),
        ExperimentSpec("table9", "GPU software environments",
                       "Appendix A, Table 9", False, via_cli("table9")),
        ExperimentSpec("figure1", "Frontier node topology",
                       "section 3.2, Figure 1", False, via_cli("figure1")),
        ExperimentSpec("figure2", "Summit node topology",
                       "section 3.2, Figure 2", False, via_cli("figure2")),
        ExperimentSpec("figure3", "Perlmutter node topology",
                       "section 3.2, Figure 3", False, via_cli("figure3")),
        ExperimentSpec("compare", "Paper-vs-measured comparison",
                       "(reproduction artifact)", False, via_cli("compare")),
        ExperimentSpec("ext-internode", "Inter-node latency/bandwidth",
                       "section 5 future work", True, via_cli("internode")),
        ExperimentSpec("ext-sweeps", "Size-sweep curves",
                       "Appendix B.2 methodology", True, via_cli("sweeps")),
        ExperimentSpec("ext-check", "Model self-check",
                       "(reproduction artifact)", True, via_cli("selfcheck")),
    ]
    return {s.experiment_id: s for s in specs}


def all_experiments() -> list[ExperimentSpec]:
    """Every registered experiment, paper artifacts first."""
    specs = list(_registry().values())
    return sorted(specs, key=lambda s: (s.is_extension, s.experiment_id))


def get_experiment(experiment_id: str) -> ExperimentSpec:
    registry = _registry()
    try:
        return registry[experiment_id]
    except KeyError:
        raise BenchmarkConfigError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(sorted(registry))}"
        ) from None


def paper_artifacts() -> list[ExperimentSpec]:
    return [s for s in all_experiments() if not s.is_extension]


def coverage_report() -> str:
    """Human-readable index of everything that regenerates."""
    lines = [f"{'id':14s} {'paper location':26s} title"]
    for spec in all_experiments():
        marker = " (extension)" if spec.is_extension else ""
        lines.append(
            f"{spec.experiment_id:14s} {spec.paper_section:26s} "
            f"{spec.title}{marker}"
        )
    return "\n".join(lines)
