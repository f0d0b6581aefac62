"""Discrete-event simulation substrate.

A small, dependency-free, SimPy-flavoured engine: generator coroutines are
scheduled as :class:`~repro.sim.engine.Process` objects on an
:class:`~repro.sim.engine.Environment` whose clock advances in simulated
seconds.  A device's DMA engines are modelled with
:class:`~repro.sim.resources.Resource`; MPI matching lives in
:mod:`repro.mpisim.world` and device streams in :mod:`repro.gpurt.stream`,
both on plain events.

All benchmark "timings" in this package are read off the simulated clock,
never the wall clock.

Import from the submodules (:mod:`.engine`, :mod:`.resources`,
:mod:`.random`): this package imports none of them, so loading the
engine loads neither the resources nor the random streams.
"""
