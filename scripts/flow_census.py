"""Census of phase-space flows: which nets do the squeezing and Fourier
unitaries permute point operators on?

Each unitary is scanned over the census family of `flow_census`: every
net at d <= 3, the fixed-axes nets above.  Expected picture: translations
flow on every net; the squeezing operator flows on exactly d nets of the
fixed-axes family; the Fourier transform flows on none, in any dimension
where it exists.

Usage: python scripts/flow_census.py [--d {2,3,4,5}]
"""

import argparse

from dwf.clifford import fourier_operator, squeezing_operator
from dwf.galois import SUPPORTED_DIMENSIONS, field
from dwf.geometry import all_points
from dwf.pauli import build_labeling
from dwf.quantum_net import ENUMERATION_MAX_DIM, flow_census


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=4,
                        choices=[d for d in SUPPORTED_DIMENSIONS if d <= ENUMERATION_MAX_DIM])
    args = parser.parse_args()
    d = args.d
    gf = field(d)
    lab = build_labeling(gf)
    translations = [flow_census(lab.unitary_at(pt), gf) for pt in list(all_points(gf))[1:4]]
    size = translations[0].size
    print(f"d={d}: scanning {size} {translations[0].family} nets")
    common = set.intersection(*({net.ray_choices for net in c.flows} for c in translations))
    print(f"translations flow on {len(common)}/{size} nets (expect all)")

    if gf.n >= 2:
        squeeze = flow_census(squeezing_operator(gf).dense, gf).flows
        print(f"squeezing flows on {len(squeeze)}/{size} nets (expect {d}):")
        for net in squeeze:
            print(f"  ray_choices={net.ray_choices}")
    else:
        print("squeezing skipped (prime dimension, trivial table)")

    if gf.p == 2:
        fourier = flow_census(fourier_operator(gf).dense, gf).flows
        print(f"Fourier flows on {len(fourier)}/{size} nets (expect 0)")
    else:
        print("Fourier skipped (odd characteristic)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
