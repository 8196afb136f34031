"""Discrete Wigner functions on finite-field phase space.

Layers, bottom up: exact GF(p^n) arithmetic (galois), the d x d affine
grid (geometry), translation operators and commuting sets (pauli), the
d+1 mutually unbiased bases (mub), translation-covariant line-projector
assignments (quantum_net), Wigner tables (wigner), the non-negativity
polytope with its constructive decomposition (classicality), and the
Clifford machinery for phase-space flows (clifford).
"""

__version__ = "0.1.0"

import os
import sys


def _started_as_cli() -> bool:
    """True when the `dwf` program, not a library user, imports the package:
    `python -m dwf.cli` (argv[0] is "-m" while the module is located) or
    the installed `dwf` console script."""
    if sys.argv[:1] == ["-m"]:
        return "dwf.cli" in sys.orig_argv
    return bool(sys.argv) and os.path.splitext(os.path.basename(sys.argv[0]))[0] == "dwf"


try:
    from . import tolerances  # noqa: F401  (reads DWF_TOLERANCE_SCALE)
except ValueError as exc:
    # the CLI's own error handling runs only after this package imports,
    # so a bad environment is reported here as the usage error it is
    if not _started_as_cli():
        raise
    print(f"error: {exc}", file=sys.stderr)
    raise SystemExit(2) from None

from .galois import FieldElement, FieldSpec, field  # noqa: F401
from .geometry import Line, PhasePoint, Striation, build_striations  # noqa: F401
from .pauli import AbelianSet, PauliOperator, standard_sets  # noqa: F401
from .mub import MubSet, standard_mub, unbiasedness_report  # noqa: F401
from .quantum_net import QuantumNet, covariant_completion, enumerate_nets, flow_census, is_flow  # noqa: F401
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
    net_minima,
)
from .clifford import (  # noqa: F401
    affine_extraction,
    fourier_operator,
    is_clifford,
    maps_mub_to_mub,
    squeezing_operator,
    standardize_pair,
    tableau_apply,
)
