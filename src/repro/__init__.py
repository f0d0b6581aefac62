"""repro — a simulated reproduction of *"Latency and Bandwidth
Microbenchmarks of US Department of Energy Systems in the June 2023
Top500 List"* (Siefert, Pearson, Olivier, Prokopenko, Hu, Fuller;
SC-W 2023).

The package models the 13 DOE systems the paper measured, reimplements
the three benchmark suites it ran (BabelStream 4.0, OSU Micro-Benchmarks
7.1.1, Comm|Scope 0.12.0) on top of simulated hardware, and regenerates
every table and figure of the paper's evaluation.

Quickstart
----------
::

    from repro import get_machine, Study
    from repro.core import build_table6, render_table6

    study = Study()
    print(render_table6(build_table6(study)))

or from the shell: ``python -m repro table6``.
"""

from ._version import __version__


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for a package whose public names live
    in submodules: a name is imported from its module on first access
    (PEP 562), so importing the package itself loads none of them.

    ``exports`` maps each module, relative to ``package``, to the names
    it provides, in ``__all__`` order.  A submodule exported under its
    own name (``".collectives": ("collectives",)``) resolves to itself.
    """
    import importlib
    import sys

    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    return list(where), __getattr__


__all__, __getattr__ = _lazy_exports(__name__, {
    ".machines": (
        "Machine",
        "get_machine",
        "by_rank",
        "machine_names",
        "cpu_machines",
        "gpu_machines",
        "all_machines",
    ),
    ".core.study": ("Study",),
    ".core.config": ("StudyConfig",),
    ".core.results": ("Statistic",),
    ".faults.models": ("FaultPlan",),
    ".faults.profiles": ("get_profile",),
})
__all__.insert(0, "__version__")
