"""Census of phase-space flows: which nets do the squeezing and Fourier
unitaries permute point operators on?

Expected picture: translations flow on every net; the squeezing operator
flows on exactly d nets of the fixed-axes family; the Fourier transform
flows on none, in any dimension where it exists.

Usage: python scripts/flow_census.py [--d {2,3,4,5}]
"""

import argparse

from dwf.clifford import fourier_operator, squeezing_operator
from dwf.galois import SUPPORTED_DIMENSIONS, field
from dwf.geometry import all_points
from dwf.mub import standard_mub
from dwf.pauli import build_labeling
from dwf.quantum_net import ENUMERATION_MAX_DIM, enumerate_nets, is_flow


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=4,
                        choices=[d for d in SUPPORTED_DIMENSIONS if d <= ENUMERATION_MAX_DIM])
    args = parser.parse_args()
    d = args.d
    gf = field(d)
    mub = standard_mub(d)

    fix_axes = d > 3  # keep full enumeration cheap for the tiny cases
    nets = list(enumerate_nets(gf, fix_axes=fix_axes))
    family = "fixed-axes" if fix_axes else "all"
    print(f"d={d}: scanning {len(nets)} {family} nets")

    lab = build_labeling(gf)
    sample_translations = [lab.unitary_at(pt) for pt in list(all_points(gf))[1:4]]
    translation_flows = sum(
        1 for net in nets if all(is_flow(u, net) for u in sample_translations)
    )
    print(f"translations flow on {translation_flows}/{len(nets)} nets (expect all)")

    if gf.n >= 2:
        us = squeezing_operator(gf).dense
        squeeze_nets = [net for net in nets if is_flow(us, net)]
        print(f"squeezing flows on {len(squeeze_nets)}/{len(nets)} nets (expect {d}):")
        for net in squeeze_nets:
            print(f"  ray_choices={net.ray_choices}")
    else:
        print("squeezing skipped (prime dimension, trivial table)")

    if gf.p == 2:
        f = fourier_operator(gf).dense
        fourier_flows = sum(1 for net in nets if is_flow(f, net))
        print(f"Fourier flows on {fourier_flows}/{len(nets)} nets (expect 0)")
    else:
        print("Fourier skipped (odd characteristic)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
