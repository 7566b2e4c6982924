"""bondc: compile bond-calculus models to reaction networks and simulate them.

The pipeline is: parse a ``.bond`` model, normalise species terms to a
canonical form, enumerate site-synchronisation transitions, extract a
reaction network over prime species, and hand that network to either a
deterministic ODE integrator or a stochastic simulator.  Import from the
submodules (``bondc.parser``, ``bondc.reactions``, ``bondc.ode``, ...); only
the simulators import numpy, when they run.
"""

__version__ = "0.1.0"
