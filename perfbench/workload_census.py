"""census: the negativity census of scripts/negativity_census.py at d=4.

One op takes one seeded state and computes its Wigner table under each
of the 1,024 nets, the minimum over those tables, `min_wigner`,
`brute_force_min`, `classify` and `convex_decomposition`.  On a seeded
subset of nets, completed afresh in the op, it also takes the
point-operator route and reconstructs the state from the table.  A round
is three ops: a Haar-random pure state, a random mixture of basis
projectors, another pure state.
"""

from __future__ import annotations

import numpy as np

import checks
from dwf import classicality, galois, geometry, mub, quantum_net, wigner

D = 4
ROUND = ("pure", "mixture", "pure")
SUBSET = 8  # nets per op that also take the point-operator route
MIXTURE_TERMS = 6
STATES_PER_OP = 1


def setup():
    """Every table and net the ops reuse."""
    gf = galois.field(D)
    mubs = mub.standard_mub(D)
    ctx = quantum_net.standard_context(D)
    nets = list(quantum_net.enumerate_nets(gf))
    return gf, mubs, ctx, nets


def _lines(ctx) -> list[list[np.ndarray]]:
    """Flat point indices of every line, striation by striation."""
    return [
        [np.array(sorted(pt.index for pt in geometry.line_points(ln))) for ln in s.lines]
        for s in ctx.striations
    ]


class Census:
    def __init__(self, seed: int):
        self.gf, self.mub, self.ctx, self.nets = setup()
        self.bases = np.stack([b.vectors.T for b in self.mub.bases])
        checks.check_bases(self.bases)
        self.lines = _lines(self.ctx)
        self.rng = np.random.default_rng([seed, 1])

    def _state(self, kind: str) -> np.ndarray:
        rng, d = self.rng, D
        if kind == "pure":
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            return np.outer(v, v.conj())
        flat = rng.choice((d + 1) * d, size=MIXTURE_TERMS, replace=False)
        weights = rng.dirichlet(np.ones(MIXTURE_TERMS))
        vecs = self.bases.reshape(-1, d)[flat]
        return np.einsum("k,kx,ky->xy", weights, vecs, vecs.conj())

    def round(self):
        """The ops of one round, as (run, check) pairs."""
        ops = []
        for kind in ROUND:
            rho = self._state(kind)
            subset = [tuple(int(r) for r in self.rng.integers(0, D, D + 1)) for _ in range(SUBSET)]
            ops.append((
                lambda rho=rho, kind=kind, subset=subset: self._run(rho, kind, subset),
                lambda out, rho=rho, kind=kind: self._check(out, rho, kind),
            ))
        return ops

    def _run(self, matrix, kind, subset):
        gf, mubs = self.gf, self.mub
        rho = wigner.DensityState(matrix, kind="pure" if kind == "pure" else "mixed")
        tables = [wigner.wigner_function(rho, net) for net in self.nets]
        per_net_min = min(t.min() for t in tables)
        report = classicality.min_wigner(rho, mubs)
        brute = classicality.brute_force_min(rho, mubs, gf)
        cls = classicality.classify(rho, mubs, gf)
        decomposition = classicality.convex_decomposition(rho, mubs)
        fresh = []
        for choices in subset:
            net = quantum_net.covariant_completion(choices, mubs, self.ctx.striations)
            table = wigner.wigner_function(rho, net)
            fresh.append((
                net,
                table.values,
                wigner.wigner_from_point_operators(rho, net),
                wigner.reconstruct_state(table).rho,
            ))
        return tables, per_net_min, report, brute, cls, decomposition, fresh

    def _check(self, out, rho, kind) -> bool:
        tables, per_net_min, report, brute, cls, decomposition, fresh = out
        checks.check_census(
            self.bases, rho, kind == "pure", per_net_min, report.min_wigner, brute,
            cls.report.classical, decomposition.coefficients,
        )
        checks.expect(report.classical == cls.report.classical, "min_wigner and classify disagree")
        for net, values, dual, rebuilt in fresh:
            index = int(np.ravel_multi_index(net.ray_choices, (D,) * (D + 1)))
            checks.check_tables_agree("fresh net vs enumerated net", values, tables[index].values)
            checks.check_line_sums(self.bases, rho, values, self.lines, net.indices)
            checks.check_tables_agree("probability route vs point-operator route", values, dual)
            checks.check_tables_agree("reconstructed state", rebuilt, rho, tol=checks.TOL)
        return True
