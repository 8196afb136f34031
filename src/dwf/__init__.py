"""Discrete Wigner functions on finite-field phase space.

Layers, bottom up: exact GF(p^n) arithmetic (galois), the d x d affine
grid (geometry), translation operators and commuting sets (pauli), the
d+1 mutually unbiased bases (mub), translation-covariant line-projector
assignments (quantum_net), Wigner tables (wigner), the non-negativity
polytope with its constructive decomposition (classicality), and the
Clifford machinery for phase-space flows (clifford).
"""

__version__ = "0.1.0"

from .galois import FieldElement, FieldSpec, field  # noqa: F401
from .geometry import Line, PhasePoint, Striation, build_striations  # noqa: F401
from .pauli import AbelianSet, PauliOperator, standard_sets  # noqa: F401
from .mub import MubSet, standard_mub, unbiasedness_report  # noqa: F401
from .quantum_net import QuantumNet, covariant_completion, enumerate_nets  # noqa: F401
from .wigner import (  # noqa: F401
    DensityState,
    WignerTable,
    probabilities,
    reconstruct_state,
    wigner_function,
)
from .classicality import (  # noqa: F401
    brute_force_min,
    classify,
    convex_decomposition,
    min_wigner,
)
from .clifford import (  # noqa: F401
    affine_extraction,
    fourier_operator,
    is_clifford,
    is_flow,
    maps_mub_to_mub,
    squeezing_operator,
    standardize_pair,
    tableau_apply,
)
