"""bimlab: finite-state transducers, bimachines, and their state blow-up.

The package models word transducers and bimachines over free word monoids,
builds an equivalent bimachine from any trimmed functional transducer, and
ships a family of small transducers whose equivalent bimachines provably
need exponentially many states, together with the machinery to demonstrate
the bound empirically.
"""

from .bimachine import Bimachine
from .construct import (
    build_left_automaton,
    build_psi,
    build_right_automaton,
    to_bimachine,
)
from .errors import (
    BimlabError,
    ConsistencyError,
    DivergingRelationError,
    ExperimentError,
    FormatError,
    NonFunctionalError,
    PreconditionError,
    ResourceLimitError,
    UnknownSymbolError,
)
from .fsm import Alphabet, Dfa, Nfa, Word, moore_reduce, reverse, subset_construction
from .instances import (
    InstanceParams,
    handcrafted_bimachine,
    instance_transducer,
    oracle,
)
from .lowerbound import (
    BoundRespected,
    ExperimentRow,
    FoolingPair,
    Mismatch,
    build_candidates,
    exponent_constant,
    find_collisions,
    refute,
    render_csv,
    run_experiment,
)
from .textfmt import (
    emit_bimachine,
    emit_transducer,
    load_machine,
    parse_bimachine,
    parse_transducer,
    word_from_text,
    word_to_text,
)
from .transducer import (
    Arc,
    FunctionalityReport,
    Transducer,
    check_functional,
    equivalent,
    is_trim,
    remove_input_epsilons,
    trim,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Arc",
    "Bimachine",
    "BimlabError",
    "BoundRespected",
    "ConsistencyError",
    "Dfa",
    "DivergingRelationError",
    "ExperimentError",
    "ExperimentRow",
    "FoolingPair",
    "FormatError",
    "FunctionalityReport",
    "InstanceParams",
    "Mismatch",
    "Nfa",
    "NonFunctionalError",
    "PreconditionError",
    "ResourceLimitError",
    "Transducer",
    "UnknownSymbolError",
    "Word",
    "build_candidates",
    "build_left_automaton",
    "build_psi",
    "build_right_automaton",
    "check_functional",
    "emit_bimachine",
    "emit_transducer",
    "equivalent",
    "exponent_constant",
    "find_collisions",
    "handcrafted_bimachine",
    "instance_transducer",
    "is_trim",
    "load_machine",
    "moore_reduce",
    "oracle",
    "parse_bimachine",
    "parse_transducer",
    "refute",
    "remove_input_epsilons",
    "render_csv",
    "reverse",
    "run_experiment",
    "subset_construction",
    "to_bimachine",
    "trim",
    "word_from_text",
    "word_to_text",
]
