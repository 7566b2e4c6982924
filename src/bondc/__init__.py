"""bondc: compile bond-calculus models to reaction networks and simulate them.

The pipeline is: parse a ``.bond`` model, normalise species terms to a
canonical form, enumerate site-synchronisation transitions, extract a
reaction network over prime species, and hand that network to either a
deterministic ODE integrator or a stochastic simulator.
"""

from . import expr
from .congruence import normalize, primes, serialize
from .expr import DomainError
from .ode import (
    OdeSystem,
    StiffnessError,
    Trajectory,
    build_odes,
    eval_field,
    integrate,
    render_odes,
)
from .parser import ParseError, parse_model
from .reactions import (
    PrimeIndex,
    Reaction,
    ReactionSystem,
    UnboundedError,
    build_reaction_system,
    initial_mixture,
    reachable_primes,
)
from .ssa import DiscreteModel, SsaRun, discretize, gillespie, gillespie_runs, initial_levels
from .terms import (
    AMBIENT,
    NIL,
    Abstraction,
    AffinityEntry,
    Call,
    KineticLaw,
    Model,
    ModelError,
    New,
    Nil,
    Par,
    Prefix,
    SpeciesDef,
    Sum,
    free_locations,
)
from .transitions import (
    Transition,
    TransitionSystem,
    UnguardedRecursionError,
    canonical_abstraction,
    colocate,
)

__version__ = "0.1.0"

__all__ = [
    "AMBIENT",
    "NIL",
    "Abstraction",
    "AffinityEntry",
    "Call",
    "DiscreteModel",
    "DomainError",
    "KineticLaw",
    "Model",
    "ModelError",
    "New",
    "Nil",
    "OdeSystem",
    "Par",
    "ParseError",
    "Prefix",
    "PrimeIndex",
    "Reaction",
    "ReactionSystem",
    "SpeciesDef",
    "SsaRun",
    "StiffnessError",
    "Sum",
    "Trajectory",
    "Transition",
    "TransitionSystem",
    "UnboundedError",
    "UnguardedRecursionError",
    "build_odes",
    "build_reaction_system",
    "canonical_abstraction",
    "colocate",
    "discretize",
    "eval_field",
    "expr",
    "free_locations",
    "gillespie",
    "gillespie_runs",
    "initial_levels",
    "initial_mixture",
    "integrate",
    "normalize",
    "parse_model",
    "primes",
    "reachable_primes",
    "render_odes",
    "serialize",
]
