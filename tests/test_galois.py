import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwf.galois import SUPPORTED_DIMENSIONS, FieldSpec, field, inverse_mod_p, rank_mod_p

ALL_DIMS = list(SUPPORTED_DIMENSIONS)


def naive_poly_product(a, b, poly, p):
    """Schoolbook polynomial multiply + long division, independent of the
    table-driven implementation under test."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg_m = len(poly) - 1
    for k in range(len(prod) - 1, deg_m - 1, -1):
        coeff = prod[k]
        if coeff:
            for i in range(deg_m + 1):
                prod[k - deg_m + i] = (prod[k - deg_m + i] - coeff * poly[i]) % p
    prod = prod[:deg_m]
    prod += [0] * (deg_m - len(prod))
    return tuple(prod)


def test_gf2_multiplication_identity():
    gf = field(2)
    assert (gf.one * gf.one) == gf.one


def test_gf4_product_of_generator_and_successor():
    gf = field(4)
    omega = gf.generator
    assert omega * (omega + gf.one) == gf.one


@pytest.mark.parametrize("d", ALL_DIMS)
def test_all_products_against_polynomial_oracle(d):
    gf = field(d)
    for a in gf.elements:
        for b in gf.elements:
            expected = naive_poly_product(a.coords, b.coords, gf.primitive_poly, gf.p)
            assert (a * b).coords == expected


def test_gf3_inverse_of_two():
    gf = field(3)
    two = gf.element(2)
    assert two.inverse() == two


def test_inverse_of_zero_raises():
    for d in (2, 3, 4):
        with pytest.raises(ZeroDivisionError):
            field(d).zero.inverse()


@pytest.mark.parametrize("d", ALL_DIMS)
def test_field_axioms_exhaustive(d):
    gf = field(d)
    els = gf.elements
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els[1:]:
        assert a * a.inverse() == gf.one
        assert a - a == gf.zero


@pytest.mark.parametrize("d", ALL_DIMS)
def test_generator_has_full_order(d):
    gf = field(d)
    seen = set()
    acc = gf.one
    for _ in range(d - 1):
        seen.add(acc.index)
        acc = acc * gf.generator
    assert acc == gf.one
    assert len(seen) == d - 1


def test_companion_matrix_gf2():
    assert field(2).companion.tolist() == [[1]]


def test_companion_matrix_gf4():
    m = field(4).companion
    assert m.tolist() == [[0, 1], [1, 1]]
    m3 = np.linalg.matrix_power(m, 3) % 2
    assert np.array_equal(m3, np.eye(2, dtype=np.int64))
    powers = {tuple(np.linalg.matrix_power(m, j).flatten() % 2) for j in range(3)}
    assert len(powers) == 3


@pytest.mark.parametrize("d", ALL_DIMS)
def test_companion_powers_distinct_and_cyclic(d):
    gf = field(d)
    m = gf.companion
    seen = set()
    acc = np.eye(gf.n, dtype=np.int64)
    for _ in range(d - 1):
        assert acc.any()
        seen.add(acc.tobytes())
        acc = (acc @ m) % gf.p
    assert np.array_equal(acc, np.eye(gf.n, dtype=np.int64))
    assert len(seen) == d - 1


@pytest.mark.parametrize("d", ALL_DIMS)
def test_companion_matrix_matches_generator_action(d):
    gf = field(d)
    for x in gf.elements:
        lhs = (gf.generator * x).coords
        rhs = tuple((gf.companion @ np.array(x.coords)) % gf.p)
        assert lhs == rhs


@st.composite
def square_matrix_mod_p(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    return p, np.array(entries, dtype=np.int64).reshape(n, n)


@settings(max_examples=200)
@given(square_matrix_mod_p())
def test_row_reduction_rank_and_inverse(case):
    p, a = case
    n = a.shape[0]
    # brute force: the row space holds p^rank distinct vectors
    coefficients = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    row_space = {tuple(v) for v in (coefficients @ a) % p}
    rank = rank_mod_p(a, p)
    assert p**rank == len(row_space)
    if rank == n:
        assert np.array_equal((inverse_mod_p(a, p) @ a) % p, np.eye(n, dtype=np.int64))
    else:
        with pytest.raises(ValueError, match="singular"):
            inverse_mod_p(a, p)


def test_trace_of_omega_powers_gf4():
    gf = field(4)
    omega = gf.generator
    assert gf.trace(omega * omega) == 1
    assert gf.trace(omega * omega * omega) == 0


@pytest.mark.parametrize("p, n, poly", [
    (2, 2, (1, 0, 1)),  # (x + 1)^2
    (3, 2, (2, 0, 1)),  # (x + 1)(x + 2)
    (3, 2, (1, 0, 1)),  # irreducible, but x has order 4
])
def test_non_primitive_polynomial_rejected(p, n, poly):
    with pytest.raises(ValueError, match="not primitive"):
        FieldSpec(p, n, poly)


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError):
        field(6)


def test_power_operator_matches_repeated_multiplication():
    for d in (4, 9):
        gf = field(d)
        for a in gf.elements[1:]:
            acc = gf.one
            for k in range(2 * d):
                assert a**k == acc
                acc = acc * a
