"""Scan the qubit Bloch sphere for states whose Wigner function stays
non-negative under every net.

The scan confirms the rigidity picture at d=2: the only pure states that
survive are (numerically) the six basis states of the complete MUB set,
so every flagged grid point sits within a tiny angular cap around one of
the six axis directions.

Usage: python scripts/bloch_rigidity_scan.py [--resolution-deg 1.0] [--slack 1e-9]
--resolution-deg must lie in [0.25, 180] (the finest grid holds about a
million states) and --slack must be a finite number >= 0; anything else
exits 2 with one line naming the flag.
"""

import argparse

import numpy as np

from dwf.mub import standard_mub

FINEST_RESOLUTION_DEG = 0.25  # 721 x 1440 grid states


def polar_angles_deg(resolution_deg: float) -> np.ndarray:
    """Polar angles from 0 to exactly 180 degrees, in equal steps of at most resolution_deg."""
    return np.linspace(0.0, 180.0, int(np.ceil(180.0 / resolution_deg)) + 1)


def scan(resolution_deg: float, slack: float):
    mub = standard_mub(2)
    thetas = np.deg2rad(polar_angles_deg(resolution_deg))
    phis = np.deg2rad(np.arange(0.0, 360.0, resolution_deg))
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    states = np.stack([np.cos(tt / 2), np.exp(1j * pp) * np.sin(tt / 2)])

    probs = np.abs(mub.frame.conj().T @ states) ** 2
    minima = np.minimum(probs[0::2], probs[1::2])
    min_w = (minima.sum(axis=0) - 1.0) / 2.0

    bloch = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)])
    angle_to_axis = np.arccos(np.clip(np.max(np.abs(bloch), axis=0), -1.0, 1.0))

    flagged = min_w >= -slack
    return len(tt), flagged, angle_to_axis, min_w


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution-deg", type=float, default=1.0)
    parser.add_argument("--slack", type=float, default=1e-9,
                        help="tolerance below zero still counted as non-negative")
    args = parser.parse_args()
    if not FINEST_RESOLUTION_DEG <= args.resolution_deg <= 180.0:  # also refuses nan
        parser.error(
            f"argument --resolution-deg: must be a number in [{FINEST_RESOLUTION_DEG:g}, 180], "
            f"got {args.resolution_deg}"
        )
    if not 0.0 <= args.slack < np.inf:
        parser.error(f"argument --slack: must be a finite number >= 0, got {args.slack}")

    total, flagged, angle, min_w = scan(args.resolution_deg, args.slack)
    print(f"grid states: {total} at {args.resolution_deg} deg resolution")
    print(f"flagged non-negative (min over all nets >= -{args.slack:g}): {flagged.sum()}")
    if flagged.any():
        worst = float(angle[flagged].max())
        print(f"max angular distance of a flagged state to a basis axis: {worst:.6f} rad")
    print(f"most negative minimum on the grid: {min_w.min():.6f}")
    print(f"sphere-wide extreme (1 - sqrt(3))/4 = {(1 - np.sqrt(3)) / 4:.6f}, "
          "attained along the diagonal Bloch axes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
