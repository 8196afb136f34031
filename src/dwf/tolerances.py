"""Numerical tolerance tiers used across the package.

Three tiers, loosest to tightest: LOOKUP for matching operators against a
finite catalogue (net membership, Pauli decomposition), SPECTRAL for
quantities that pass through a diagonalization, ALGEBRAIC for identities
that are exact in infinite precision.  The environment variable
DWF_TOLERANCE_SCALE multiplies all of them (default 1.0); it is read once
at import time, and anything but a finite number > 0 raises ValueError.
"""

import math
import os


def _scale(raw: str) -> float:
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"DWF_TOLERANCE_SCALE must be a finite number > 0, got {raw!r}")
    return scale


SCALE = _scale(os.environ.get("DWF_TOLERANCE_SCALE", "1.0"))

ALGEBRAIC = 1e-12 * SCALE
SPECTRAL = 1e-10 * SCALE
LOOKUP = 1e-8 * SCALE

# Membership in the classical polytope is decided with extra slack so that
# diagonalization noise never flips the verdict for boundary states.
MEMBERSHIP = 1e-9 * SCALE

# Largest entry modulus a state matrix may have.  Float rounding in the
# basis probabilities grows with it: on seeded Hermitian, trace-one
# matrices at every supported d it reached about 400 ulps of the largest
# entry in the Wigner-table sum.  At 1e12 * SPECTRAL (100 at scale 1) that
# stays an order of magnitude under SPECTRAL, so rounding alone never
# trips the probability or Wigner sum checks.
STATE_ENTRY_MAX = 1e12 * SPECTRAL


# A Wigner table sums to 1 + (d+1)(tr rho - 1), checked against SPECTRAL:
# a trace slack of SPECTRAL / (2(d+1)) spends half of it, leaving the rest for rounding.
def trace_slack(d: int) -> float:
    return SPECTRAL / (2 * (d + 1))
