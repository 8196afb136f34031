"""Command-line front door: build, check, compute, enumerate, export.

Exit codes: 0 success, 1 a verification or membership check failed,
2 usage error (bad flags, missing or malformed files), raised to `main`
as a UsageError or FormatError.  Every JSON the tool writes embeds
dimension, primitive polynomial, seed and tool version.
The environment variable DWF_TOLERANCE_SCALE multiplies all numeric
tolerances (default 1.0).
"""

from __future__ import annotations

import argparse
import sys

from .classicality import brute_force_min, classify, convex_decomposition
from .clifford import fourier_operator, is_clifford, squeezing_operator
from .formats import (
    FormatError,
    mub_to_payload,
    net_from_payload,
    net_to_payload,
    read_json,
    state_from_payload,
    unitary_from_payload,
    wigner_to_csv,
    write_json,
)
from .galois import SUPPORTED_DIMENSIONS, field
from .geometry import build_striations, line_points
from .mub import standard_mub, unbiasedness_report
from .pauli import standard_sets
from .quantum_net import ENUMERATION_MAX_DIM, enumerate_nets, flow_census, net_count, standard_context
from .tolerances import ALGEBRAIC
from .verification import DEFAULT_SEED, run_verification
from .wigner import wigner_function


class UsageError(FormatError):
    """Flags that contradict each other or name what the command refuses."""


def dimension(value: str) -> int:
    d = int(value)
    if d not in SUPPORTED_DIMENSIONS:
        raise argparse.ArgumentTypeError(
            f"dimension {d} unsupported; choose from {SUPPORTED_DIMENSIONS}"
        )
    return d


def seed(value: str) -> int:
    seed = int(value)
    if seed < 0:  # numpy's generators take no negative seed
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwf",
        description="Discrete Wigner functions on finite-field phase space.",
    )
    parser.add_argument("--seed", type=seed, default=DEFAULT_SEED,
                        help="seed recorded in outputs and used by randomized checks")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_field = sub.add_parser("field", help="print field tables and companion matrix")
    p_field.add_argument("--p", type=int, required=True)
    p_field.add_argument("--n", type=int, required=True)
    p_field.add_argument("--tables", action="store_true")

    p_geo = sub.add_parser("geometry", help="print striations and their lines")
    p_geo.add_argument("--d", type=dimension, required=True)
    p_geo.add_argument("--striations", action="store_true")

    p_pauli = sub.add_parser("pauli", help="print the d+1 commuting sets")
    p_pauli.add_argument("--d", type=dimension, required=True)
    p_pauli.add_argument("--sets", action="store_true")

    p_mub = sub.add_parser("mub", help="print bases and the unbiasedness report")
    p_mub.add_argument("--d", type=dimension, required=True)
    p_mub.add_argument("--check", action="store_true")
    p_mub.add_argument("--json", metavar="PATH", help="export bases as JSON")

    p_nets = sub.add_parser("nets", help="enumerate or export quantum nets")
    p_nets.add_argument("--d", type=dimension, required=True)
    p_nets.add_argument("--fix-axes", action="store_true")
    p_nets.add_argument("--count-only", action="store_true")
    p_nets.add_argument("--ray-choices", metavar="J,J,...",
                        help="comma-separated ray choices selecting one net")
    p_nets.add_argument("--out", metavar="PATH", help="write the selected net as JSON")

    p_wig = sub.add_parser("wigner", help="Wigner table of a state under a net")
    p_wig.add_argument("--state", required=True, metavar="S.json")
    p_wig.add_argument("--net", required=True, metavar="N.json")
    p_wig.add_argument("--out", required=True, metavar="W.csv")

    p_cls = sub.add_parser("classicality", help="membership report and decomposition")
    p_cls.add_argument("--state", required=True, metavar="S.json")
    p_cls.add_argument("--decompose", metavar="OUT.json")
    p_cls.add_argument("--brute-force", action="store_true",
                       help="cross-check the closed form by full net enumeration")

    p_clif = sub.add_parser("clifford", help="Clifford checks and phase-space scans")
    p_clif.add_argument("--check", metavar="U.json")
    p_clif.add_argument("--no-flow-scan", action="store_true",
                        help="scan the Fourier transform over nets for flows")
    p_clif.add_argument("--squeeze", action="store_true",
                        help="synthesize the squeezing operator and print its table")
    p_clif.add_argument("--d", type=dimension)

    p_verify = sub.add_parser("verify", help="run the invariant suite for a dimension")
    p_verify.add_argument("--d", type=dimension, required=True)
    return parser


def _cmd_field(args: argparse.Namespace) -> int:
    d = args.p**args.n
    try:
        gf = field(d)
    except ValueError as exc:
        raise UsageError(exc) from None
    if gf.p != args.p or gf.n != args.n:
        raise UsageError(f"p={args.p}, n={args.n} is not a supported field")
    poly = " + ".join(
        f"{c}*x^{i}" if i else str(c)
        for i, c in enumerate(gf.primitive_poly) if c
    )
    print(f"GF({d}) = GF({gf.p}^{gf.n}), primitive polynomial {poly}")
    print(f"generator index {gf.generator.index}")
    print("companion matrix M:")
    for row in gf.companion:
        print("  " + " ".join(f"{x:2d}" for x in row))
    if args.tables:
        width = len(str(d - 1))
        for title, op in (("addition", lambda a, b: a + b), ("multiplication", lambda a, b: a * b)):
            print(f"{title} table (element indices):")
            header = " " * (width + 2) + " ".join(f"{j:{width}d}" for j in range(d))
            print("  " + header.strip())
            for a in gf.elements:
                row = " ".join(f"{op(a, b).index:{width}d}" for b in gf.elements)
                print(f"  {a.index:{width}d}| {row}")
    return 0


def _cmd_geometry(args: argparse.Namespace) -> int:
    d = args.d
    striations = build_striations(field(d))
    print(f"d={d}: {len(striations)} striations of {d} lines each")
    if args.striations:
        for s in striations:
            print(f"striation {s.kappa}: {s.describe()}")
            for ln in s.lines:
                pts = sorted(line_points(ln), key=lambda pt: pt.index)
                pts_txt = " ".join(f"({pt.q.index},{pt.p.index})" for pt in pts)
                print(f"  {ln.b.index}*q + {ln.a.index}*p = {ln.c.index}: {pts_txt}")
    return 0


def _cmd_pauli(args: argparse.Namespace) -> int:
    d = args.d
    gf = field(d)
    sets = standard_sets(gf)
    print(f"d={d}: {len(sets)} disjoint maximal commuting sets")
    if args.sets:
        for kappa, s in enumerate(sets, start=1):
            print(f"set {kappa}: avec={s.avec} bvec={s.bvec}")
            for m in s.members:
                print(f"  T(q={m.qvec}, p={m.pvec})")
    return 0


def _cmd_mub(args: argparse.Namespace) -> int:
    d = args.d
    mub = standard_mub(d)
    report = unbiasedness_report(mub)
    print(f"d={d}: {len(mub.bases)} bases")
    print(f"max |overlap|^2 deviation: {report.max_deviation:.3e} at {report.worst_pair}")
    if args.check:
        for kappa, basis in enumerate(mub.bases, start=1):
            print(f"basis {kappa} (rows are vectors, entries re+im):")
            for j in range(d):
                amps = " ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in basis.vector(j))
                print(f"  |{kappa},{j}>: {amps}")
    if args.json:
        write_json(args.json, mub_to_payload(mub), d, args.seed)
        print(f"wrote {args.json}")
    return 0


def _cmd_nets(args: argparse.Namespace) -> int:
    d = args.d
    gf = field(d)
    total = net_count(d, args.fix_axes)
    if args.out and args.ray_choices is None:
        raise UsageError("--out needs --ray-choices")
    conflict = "--count-only" if args.count_only else "--fix-axes" if args.fix_axes else None
    if args.ray_choices is not None and conflict:
        raise UsageError(f"--ray-choices conflicts with {conflict}")
    if args.count_only:
        print(total)
        return 0
    if args.ray_choices is not None:
        try:
            choices = tuple(int(x) for x in args.ray_choices.split(","))
        except ValueError:
            raise UsageError("field 'ray_choices' must be comma-separated integers") from None
        try:
            net = standard_context(d).complete(choices)
        except ValueError as exc:
            raise UsageError(exc) from None
        print(f"net {net.ray_choices} on d={d}")
        if args.out:
            write_json(args.out, net_to_payload(net), d, args.seed)
            print(f"wrote {args.out}")
        return 0
    if d > ENUMERATION_MAX_DIM:
        raise UsageError(f"enumeration of {total} nets at d={d} is refused; use --ray-choices to select one")
    count = 0
    for net in enumerate_nets(gf, fix_axes=args.fix_axes):
        print(",".join(str(r) for r in net.ray_choices))
        count += 1
    print(f"total: {count}")
    return 0


def _cmd_wigner(args: argparse.Namespace) -> int:
    state = state_from_payload(read_json(args.state))
    net = net_from_payload(read_json(args.net))
    if state.dim != net.dim:
        raise FormatError(
            f"field 'dim': state is {state.dim}-dimensional, net is {net.dim}-dimensional"
        )
    table = wigner_function(state, net)
    with open(args.out, "w") as fh:
        fh.write(wigner_to_csv(table))
    print(f"wrote {args.out}: sum={table.values.sum():.12f}, min={table.min():.12f}")
    return 0


def _cmd_classicality(args: argparse.Namespace) -> int:
    state = state_from_payload(read_json(args.state))
    d = state.dim
    if d not in SUPPORTED_DIMENSIONS:
        raise FormatError(f"field 'dim': {d} is not a supported dimension")
    if args.brute_force and d > ENUMERATION_MAX_DIM:
        raise UsageError(f"--brute-force supports d <= {ENUMERATION_MAX_DIM}, got d={d}")
    gf = field(d)
    mub = standard_mub(d)
    out = classify(state, mub, gf)
    rep = out.report
    print(f"min_wigner: {rep.min_wigner:.12f}")
    print(f"sum_of_minima: {rep.sum_of_minima:.12f}")
    print(f"classical: {rep.classical}")
    if rep.witness_ray_choices is not None:
        print(f"witness: ray_choices={rep.witness_ray_choices} "
              f"point=({rep.witness_point.q.index},{rep.witness_point.p.index})")
    for w in out.witnesses:
        print(f"  witness net={w.ray_choices} point=({w.point.q.index},{w.point.p.index}) "
              f"value={w.value:.9f}")
    if args.brute_force:
        brute = brute_force_min(state, mub, gf)
        gap = abs(brute - rep.min_wigner)
        print(f"brute_force_min: {brute:.12f} (gap {gap:.2e})")
        if gap > ALGEBRAIC:
            print("error: brute force disagrees with the closed form", file=sys.stderr)
            return 1
    if args.decompose:
        result = convex_decomposition(state, mub)
        payload = {
            "x": result.x_total,
            "coefficients": [[float(c) for c in row] for row in result.coefficients],
            "certified_classical": bool(result.certified_classical),
        }
        write_json(args.decompose, payload, d, args.seed)
        print(f"wrote {args.decompose}")
    return 0


def _cmd_clifford(args: argparse.Namespace) -> int:
    chosen = [bool(args.check), args.no_flow_scan, args.squeeze]
    if sum(chosen) != 1:
        raise UsageError("pick exactly one of --check, --no-flow-scan, --squeeze")
    if args.check:
        u = unitary_from_payload(read_json(args.check))
        d = u.shape[0]
        if d not in SUPPORTED_DIMENSIONS:
            raise FormatError(f"field 'dim': {d} is not a supported dimension")
        try:
            result = is_clifford(u, field(d))
        except ValueError as exc:
            raise FormatError(f"field 'matrix': {exc}") from exc
        if not result:
            print("clifford: no")
            print(f"witness generator: {result.witness} (overlap deficit {result.deficit:.3e})")
            return 1
        print("clifford: yes")
    elif args.d is None:
        raise UsageError("--no-flow-scan and --squeeze require --d")
    elif args.no_flow_scan:
        d = args.d
        gf = field(d)
        if gf.p != 2:
            raise UsageError("the Fourier scan needs characteristic 2")
        if d > ENUMERATION_MAX_DIM:
            raise UsageError(f"the Fourier scan enumerates nets only for d <= {ENUMERATION_MAX_DIM}, "
                             f"got d={d}")
        census = flow_census(fourier_operator(gf).dense, gf)
        print(f"Fourier flow scan at d={d}: {len(census.flows)} flows "
              f"among {census.size} {census.family} nets")
        return 0
    else:
        try:
            result = squeezing_operator(field(args.d))
        except ValueError as exc:
            raise UsageError(exc) from None
        print(f"squeezing operator synthesized for d={args.d}")
    print("symplectic table (columns X_1..X_n, Z_1..Z_n):")
    for row in result.symplectic:
        print("  " + " ".join(str(x) for x in row))
    print(f"phase exponents: {result.phase_exponents}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(args.d, seed=args.seed)
    width = max(len(f"{r.group}: {r.name}") for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  {f'{r.group}: {r.name}':{width}s}  {r.seconds:6.2f}s  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed at d={args.d}")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "field": _cmd_field,
    "geometry": _cmd_geometry,
    "pauli": _cmd_pauli,
    "mub": _cmd_mub,
    "nets": _cmd_nets,
    "wigner": _cmd_wigner,
    "classicality": _cmd_classicality,
    "clifford": _cmd_clifford,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
