import itertools

import pytest

from dwf.galois import field
from dwf.geometry import (
    Line,
    PhasePoint,
    all_points,
    build_striations,
    line_points,
    lines_through,
    origin,
)

DIMS = (2, 3, 4, 5, 7, 8, 9)


def all_canonical_lines(gf):
    """Every distinct canonical line, generated directly from the equation
    b*q + a*p = c (independent of the striation builder)."""
    seen = set()
    for a, b, c in itertools.product(gf.elements, repeat=3):
        if not a and not b:
            continue
        seen.add(Line.make(a, b, c))
    return seen


@pytest.mark.parametrize("d", DIMS)
def test_striation_count_and_shape(d):
    striations = build_striations(field(d))
    assert len(striations) == d + 1
    for s in striations:
        assert len(s.lines) == d
        assert len(set(s.lines)) == d
        covered = set()
        for ln in s.lines:
            pts = line_points(ln)
            assert len(pts) == d
            assert not covered & pts
            covered |= pts
        assert len(covered) == d * d


@pytest.mark.parametrize("d", DIMS)
def test_position_table_matches_line_points(d):
    for s in build_striations(field(d)):
        assert not s.position.flags.writeable
        expected = [None] * (d * d)
        for t, ln in enumerate(s.lines):
            for pt in line_points(ln):
                expected[pt.index] = t
        assert s.position.tolist() == expected


def test_d2_striations_are_the_three_forced_families():
    gf = field(2)
    striations = build_striations(gf)
    # {q = c}, {p = c}, {q + p = c}
    assert {ln for ln in striations[0].lines} == {
        Line.make(gf.zero, gf.one, c) for c in gf.elements
    }
    assert {ln for ln in striations[1].lines} == {
        Line.make(gf.one, gf.zero, c) for c in gf.elements
    }
    assert {ln for ln in striations[2].lines} == {
        Line.make(gf.one, gf.one, c) for c in gf.elements
    }


def test_d4_oblique_rays_have_generator_power_slopes():
    gf = field(4)
    striations = build_striations(gf)
    for k in range(3):
        ray = striations[2 + k].lines[0]
        slope = gf.generator_power(k)
        expected = frozenset(PhasePoint(q, slope * q) for q in gf.elements)
        assert line_points(ray) == expected


@pytest.mark.parametrize("d", (3, 4, 5))
def test_striations_match_parallel_classes_of_all_lines(d):
    gf = field(d)
    by_direction = {}
    for ln in all_canonical_lines(gf):
        by_direction.setdefault((ln.a, ln.b), set()).add(ln)
    built = {frozenset(s.lines) for s in build_striations(gf)}
    assert built == {frozenset(v) for v in by_direction.values()}
    assert len(all_canonical_lines(gf)) == d * (d + 1)


def test_line_points_examples():
    gf2 = field(2)
    vertical_ray = Line.make(gf2.zero, gf2.one, gf2.zero)
    assert line_points(vertical_ray) == frozenset(
        {PhasePoint(gf2.zero, gf2.zero), PhasePoint(gf2.zero, gf2.one)}
    )

    gf3 = field(3)
    ln = Line.make(gf3.one, gf3.one, gf3.one)  # q + p = 1
    expected = {(0, 1), (1, 0), (2, 2)}
    assert {(pt.q.index, pt.p.index) for pt in line_points(ln)} == expected

    gf4 = field(4)
    omega = gf4.generator
    ray = build_striations(gf4)[2].lines[0]  # p = omega^0 q ... slope 1
    slope_one = {(q.index, q.index) for q in gf4.elements}
    assert {(pt.q.index, pt.p.index) for pt in line_points(ray)} == slope_one
    # p = omega*q has the 4 solutions (0,0), (1,w), (w,w^2), (w^2,1)
    ray_w = build_striations(gf4)[3].lines[0]
    expected_w = {(0, 0), (1, omega.index), (omega.index, (omega * omega).index), ((omega * omega).index, 1)}
    assert {(pt.q.index, pt.p.index) for pt in line_points(ray_w)} == expected_w


def test_lines_through_origin_are_the_rays():
    for d in (2, 3, 4):
        gf = field(d)
        striations = build_striations(gf)
        pencil = lines_through(origin(gf), striations)
        assert list(pencil) == [s.lines[0] for s in striations]


def test_lines_through_point_d2():
    gf = field(2)
    striations = build_striations(gf)
    pencil = lines_through(PhasePoint(gf.one, gf.one), striations)
    assert pencil[0] == Line.make(gf.zero, gf.one, gf.one)  # q = 1
    assert pencil[1] == Line.make(gf.one, gf.zero, gf.one)  # p = 1
    assert pencil[2] == Line.make(gf.one, gf.one, gf.zero)  # q + p = 0


def test_lines_through_point_d3_pairwise_intersections():
    gf = field(3)
    striations = build_striations(gf)
    pt = PhasePoint(gf.one, gf.elements[2])
    pencil = lines_through(pt, striations)
    assert len(pencil) == 4
    for ln1, ln2 in itertools.combinations(pencil, 2):
        assert line_points(ln1) & line_points(ln2) == {pt}


@pytest.mark.parametrize("d", DIMS)
def test_two_points_share_exactly_one_line(d):
    gf = field(d)
    striations = build_striations(gf)
    pts = all_points(gf)
    for p1, p2 in itertools.combinations(pts, 2):
        common = [ln for ln in lines_through(p1, striations) if p2 in line_points(ln)]
        assert len(common) == 1


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_two_lines_parallel_or_meet_once_exhaustive(d):
    gf = field(d)
    lines = list(all_canonical_lines(gf))
    for ln1, ln2 in itertools.combinations(lines, 2):
        meet = line_points(ln1) & line_points(ln2)
        assert len(meet) in (0, 1)
        if (ln1.a, ln1.b) == (ln2.a, ln2.b):
            assert not meet
        else:
            assert len(meet) == 1


@pytest.mark.parametrize("d", (8, 9))
def test_two_lines_parallel_or_meet_once_sampled(d):
    gf = field(d)
    striations = build_striations(gf)
    sample = [s.lines[i] for s in striations for i in (0, d // 2, d - 1)]
    for ln1, ln2 in itertools.combinations(sample, 2):
        assert len(line_points(ln1) & line_points(ln2)) in (0, 1)


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_translation_along_direction_preserves_striation(d):
    gf = field(d)
    for s in build_striations(gf):
        members = set(s.lines)
        for j in range(d - 1):
            dq = s.alpha * gf.generator_power(j)
            dp = s.beta * gf.generator_power(j)
            for ln in s.lines:
                translated = frozenset(
                    PhasePoint(pt.q + dq, pt.p + dp) for pt in line_points(ln)
                )
                matches = [m for m in members if line_points(m) == translated]
                assert len(matches) == 1
            # the ray is fixed pointwise-as-a-set by its own translations
            ray_translated = frozenset(
                PhasePoint(pt.q + dq, pt.p + dp) for pt in line_points(s.lines[0])
            )
            assert ray_translated == line_points(s.lines[0])
