"""How negative does the Wigner function of a random state get, per net
and globally?

For each sampled state the script prints the spread of per-net minima
over every net, read from one exhaustive scan's `net_minima`, the closed-form
global minimum, and checks the two agree at the bottom of the range.
Random pure states land outside the classical polytope essentially
always; mixtures move inward as they approach the maximally mixed state.
d is capped at ENUMERATION_MAX_DIM, the limit of the scan.

Usage: python scripts/negativity_census.py [--d {2,3,4,5}] [--states 10] [--seed 7]
                                          [--mixing 0.0]
--states and --seed must be non-negative and --mixing a number in [0, 1];
anything else exits 2 with one line naming the flag.
"""

import argparse

import numpy as np

from dwf.classicality import min_wigner, net_minima
from dwf.galois import SUPPORTED_DIMENSIONS
from dwf.mub import standard_mub
from dwf.quantum_net import ENUMERATION_MAX_DIM, net_count
from dwf.wigner import DensityState


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=3,
                        choices=[d for d in SUPPORTED_DIMENSIONS if d <= ENUMERATION_MAX_DIM])
    parser.add_argument("--states", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mixing", type=float, default=0.0,
                        help="mix each pure state with this much of the flat state")
    args = parser.parse_args()
    if args.states < 0:
        parser.error(f"argument --states: must be non-negative, got {args.states}")
    if args.seed < 0:
        parser.error(f"argument --seed: must be non-negative, got {args.seed}")
    if not 0.0 <= args.mixing <= 1.0:  # also refuses nan
        parser.error(f"argument --mixing: must be a number in [0, 1], got {args.mixing}")

    d = args.d
    mub = standard_mub(d)
    rng = np.random.default_rng(args.seed)
    print(f"d={d}: {net_count(d)} nets, {args.states} states, mixing={args.mixing}")

    classical_count = 0
    for k in range(args.states):
        pure = DensityState.random_pure(d, rng)
        rho = DensityState(
            (1 - args.mixing) * pure.rho + args.mixing * np.eye(d) / d
        )
        per_net = net_minima(rho, mub)
        report = min_wigner(rho, mub)
        gap = abs(per_net.min() - report.min_wigner)
        classical_count += report.classical
        print(
            f"state {k:2d}: per-net minima in [{per_net.min():+.6f}, {per_net.max():+.6f}], "
            f"global {report.min_wigner:+.6f}, classical={report.classical}, "
            f"oracle gap {gap:.1e}"
        )
    print(f"classical states: {classical_count}/{args.states}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
