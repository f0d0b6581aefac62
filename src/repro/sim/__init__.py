"""Discrete-event simulation substrate.

A small, dependency-free, SimPy-flavoured engine: generator coroutines are
scheduled as :class:`~repro.sim.engine.Process` objects on an
:class:`~repro.sim.engine.Environment` whose clock advances in simulated
seconds.  Shared hardware (DMA engines, memory controllers, MPI progress
threads) is modelled with :class:`~repro.sim.resources.Resource`, and
message exchange with :class:`~repro.sim.channel.Channel`.

All benchmark "timings" in this package are read off the simulated clock,
never the wall clock.

Import from the submodules (:mod:`.engine`, :mod:`.resources`,
:mod:`.channel`, :mod:`.random`, :mod:`.trace`): this package imports
none of them, so loading the engine does not load numpy, which only
:mod:`.random` needs.
"""
