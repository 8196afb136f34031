"""flows: the flow census of scripts/flow_census.py and the paper's result
on unitaries.

One op is one seeded round of unitaries at d=4, 8 and 9: a translation
by a seeded point, the squeezing operator, the Fourier operator (where
the characteristic is 2) and a fresh Haar-random unitary.  Each is
flow-tested against a family of nets -- all 64 fixed-axes nets at d=4,
reused from op to op, and a seeded sample completed afresh in the op at
d=8 and d=9 -- and goes through `is_clifford`, `maps_mub_to_mub` and
`affine_extraction`.
"""

from __future__ import annotations

import numpy as np

import checks
from dwf import clifford, galois, mub, pauli, quantum_net

DIMS = (4, 8, 9)
SAMPLE = 4  # nets per op at d=8 and d=9
SQUEEZE_FLOWS_D4 = 4  # squeezing flows on exactly d fixed-axes nets
STATES_PER_OP = 0


def setup():
    """Every table the ops reuse, and the d=4 nets with their point operators."""
    for d in DIMS:
        quantum_net.standard_context(d)
        pauli.build_labeling(galois.field(d))
    nets4 = list(quantum_net.enumerate_nets(galois.field(4), fix_axes=True))
    for net in nets4:
        net.point_operator_table()
    return nets4


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


class Flows:
    def __init__(self, seed: int):
        self.nets4 = setup()
        self.bases = {
            d: np.stack([b.vectors.T for b in mub.standard_mub(d).bases]) for d in DIMS
        }
        for bases in self.bases.values():
            checks.check_bases(bases)
        self.rng = np.random.default_rng([seed, 2])

    def round(self):
        rng = self.rng
        inputs = []
        for d in DIMS:
            sample = [tuple(int(r) for r in rng.integers(0, d, d + 1)) for _ in range(SAMPLE)]
            inputs.append((d, int(rng.integers(1, d * d)), haar_unitary(d, rng), sample,
                           random_density(d, rng)))
        return [(lambda: self._run(inputs), lambda out: self._check(out, inputs))]

    def _run(self, inputs):
        results = []
        for d, point, haar, sample, _ in inputs:
            gf = galois.field(d)
            ctx = quantum_net.standard_context(d)
            mubs = ctx.mub
            unitaries = [("translation", pauli.build_labeling(gf).unitary_at(ctx.points[point]))]
            if gf.n >= 2:
                unitaries.append(("squeezing", clifford.squeezing_operator(gf).dense))
            if gf.p == 2:
                unitaries.append(("fourier", clifford.fourier_operator(gf).dense))
            unitaries.append(("haar", haar))
            nets = self.nets4 if d == 4 else [ctx.complete(choices) for choices in sample]
            rows = []
            for name, u in unitaries:
                rows.append((
                    name,
                    u,
                    [quantum_net.is_flow(u, net) for net in nets],
                    clifford.is_clifford(u, gf),
                    clifford.maps_mub_to_mub(u, mubs, mubs),
                    clifford.affine_extraction(u, gf),
                ))
            results.append((d, gf, nets, rows))
        return results

    def _check(self, results, inputs) -> bool:
        for (d, gf, nets, rows), (_, _, _, _, rho) in zip(results, inputs):
            bases = self.bases[d]
            for name, u, flows, symplectic, mub_map, affine in rows:
                where = f"{name} at d={d}"
                if name == "haar":
                    checks.expect(not symplectic, f"{where} came out Clifford")
                    checks.check_flow_count(where, flows, 0)
                    checks.expect(not mub_map, f"{where} maps the bases onto bases")
                    checks.expect(not affine, f"{where} came out basis-preserving")
                    continue
                checks.expect(bool(symplectic), f"{where} is not Clifford")
                checks.check_symplectic(symplectic.symplectic, gf.p)
                checks.check_clifford_conjugation(u, symplectic.symplectic, gf.p)
                checks.check_basis_map(u, bases, mub_map.permutation)
                if name == "translation":
                    checks.check_identity_table(symplectic.symplectic, gf.p)
                    checks.check_flow_count(where, flows, len(nets))
                elif name == "fourier":
                    checks.check_flow_count(where, flows, 0)
                elif d == 4:
                    checks.check_flow_count(where, flows, SQUEEZE_FLOWS_D4)
                if name == "fourier":
                    checks.expect(not affine, f"{where} came out basis-preserving")
                else:
                    checks.expect(bool(affine), f"{where} is not basis-preserving")
                    checks.check_affine(u, [affine.predicted_column(gf, z) for z in range(d)])
                image = u @ rho @ u.conj().T
                for net, flow in zip(nets, flows):
                    if flow:
                        ops = net.point_operator_table()
                        checks.check_permuted_table(
                            np.einsum("xy,ayx->a", rho, ops).real,
                            np.einsum("xy,ayx->a", image, ops).real,
                        )
        return True
