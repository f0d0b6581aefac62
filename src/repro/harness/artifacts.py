"""Artifact bundle generation (the paper's Appendix B, inverted).

The paper's artifact description explains how to rebuild its numbers
from the three benchmark suites; this module produces the equivalent
bundle from the simulation — one directory holding every regenerated
table, the figures (ASCII and Graphviz), the sweep curves and the
cell-by-cell comparison — so a release tarball carries the full
evaluation.
"""

from __future__ import annotations

import os
from dataclasses import field

from .._dataclass import dataclass
from ..core.curves import (
    babelstream_cpu_curve,
    babelstream_gpu_curve,
    osu_latency_curve,
    render_curve,
)
from ..core.figures import FIGURE_MACHINES, figure_for, render_node_ascii, render_node_dot
from ..core.report import full_report
from ..core.study import Study
from ..core.summary import build_table7, render_table7
from ..core.tables import (
    build_table4,
    build_table5,
    build_table6,
    render_table4,
    render_table5,
    render_table6,
)
from ..machines.registry import cpu_machines, gpu_machines
from .compare import comparison_rows, render_comparison


@dataclass
class ArtifactBundle:
    """Collects artifact files before writing them out."""

    files: dict[str, str] = field(default_factory=dict)

    def add(self, relpath: str, content: str) -> None:
        if relpath in self.files:
            raise ValueError(f"duplicate artifact path: {relpath}")
        if not content.endswith("\n"):
            content += "\n"
        self.files[relpath] = content

    def write_to(self, directory: str) -> list[str]:
        written = []
        for relpath, content in sorted(self.files.items()):
            path = os.path.join(directory, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(content)
            written.append(path)
        return written


def build_artifacts(study: Study | None = None, curves: bool = True) -> ArtifactBundle:
    """Assemble the full artifact bundle in memory."""
    study = study or Study()
    bundle = ArtifactBundle()

    t4 = build_table4(study)
    t5 = build_table5(study)
    t6 = build_table6(study)
    t7 = build_table7(t5, t6)
    bundle.add("tables/table4.txt", render_table4(t4))
    bundle.add("tables/table5.txt", render_table5(t5))
    bundle.add("tables/table6.txt", render_table6(t6))
    bundle.add("tables/table7.txt", render_table7(t7))

    bundle.add("comparison.md",
               render_comparison(comparison_rows(t4, t5, t6), markdown=True))
    bundle.add("report.md", full_report(study))

    for number in sorted(FIGURE_MACHINES):
        machine = figure_for(number)
        bundle.add(f"figures/figure{number}.txt", render_node_ascii(machine))
        bundle.add(f"figures/figure{number}.dot", render_node_dot(machine))

    from ..core.machine_report import machine_report

    for machine in cpu_machines() + gpu_machines():
        bundle.add(
            f"machines/{machine.name.lower()}.md",
            machine_report(machine, study),
        )

    if curves:
        for machine in cpu_machines():
            bundle.add(
                f"curves/{machine.name.lower()}_babelstream.txt",
                render_curve(babelstream_cpu_curve(machine)),
            )
            bundle.add(
                f"curves/{machine.name.lower()}_osu_latency.txt",
                render_curve(osu_latency_curve(machine)),
            )
        for machine in gpu_machines():
            bundle.add(
                f"curves/{machine.name.lower()}_babelstream_gpu.txt",
                render_curve(babelstream_gpu_curve(machine)),
            )

    from ..obs import runtime as obs

    ctx = obs.current()
    if ctx.enabled:
        # with observability armed, the metrics accumulated while
        # building the tables above become part of the bundle itself
        import json

        from ..obs.export import metrics_snapshot

        bundle.add(
            "obs/metrics.json",
            json.dumps(metrics_snapshot(ctx.metrics), indent=1,
                       sort_keys=True),
        )

        from ..obs.analyze import render_attribution

        attributions = ctx.attributions()
        if attributions:
            bundle.add(
                "obs/attribution.json",
                json.dumps([a.to_json() for a in attributions], indent=1,
                           sort_keys=True),
            )
            bundle.add("obs/attribution.txt",
                       render_attribution(attributions))

    from ..obs import live

    session = live.current()
    if session.enabled:
        # an --events-out run ships its provenance record; other runs
        # keep the bundle byte-identical to pre-telemetry builds
        from ..obs.manifest import build_manifest, render_manifest

        bundle.add(
            "manifest.json",
            render_manifest(build_manifest(
                study,
                targets=session.targets,
                events_path=str(session.events.path),
                started=session.started,
            )),
        )
    return bundle


def write_artifacts(
    directory: str, study: Study | None = None, curves: bool = True
) -> list[str]:
    """Build and write the bundle; returns the written paths."""
    return build_artifacts(study, curves).write_to(directory)
