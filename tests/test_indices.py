"""Robbin-Salamon pair index, Conley-Zehnder, brake indices, nullities."""

import math

import numpy as np
import pytest
import scipy.optimize

from brakeindex.core import (
    HalfInt,
    SymplecticPath,
    diagonal_unitary_loop,
    hyperbolic_path,
    lagrangian_l1,
    rotation_path,
    standard_symplectic,
)
from brakeindex.errors import (
    IrregularCrossing,
    Undersampled,
    ValidationError,
)
from brakeindex.indices import (
    LagrangianPath,
    brake_maslov,
    brake_maslov_report,
    conley_zehnder,
    conley_zehnder_report,
    cz_of_product,
    maslov_index,
    mu1_of_product,
    nullities,
)
from brakeindex.moduli import iterate_path


def test_brake_index_odd_rotation_table():
    # mu1(R(omega t)) = 1/2 + k at omega = (2k+1) pi, exactly
    for k, omega in enumerate(math.pi * np.array([1, 3, 5, 7])):
        assert brake_maslov(rotation_path(omega, samples=1024)) == HalfInt(1 + 2 * k)


def test_brake_index_nonresonant_floor_formula():
    for omega in (1.0, 5.0, 7.0, 12.0, -1.0, -7.0):
        want = HalfInt(1) + math.floor(omega / (2 * math.pi))
        got = brake_maslov(rotation_path(omega, samples=1024))
        assert got == want, f"omega={omega}: {got} != {want}"


def test_conley_zehnder_nonresonant_formula():
    for omega in (1.0, 5.0, 7.0, 12.0, -1.0):
        want = HalfInt.from_int(2 * math.floor(omega / (2 * math.pi)) + 1)
        assert conley_zehnder(rotation_path(omega, samples=1024)) == want


def test_conley_zehnder_full_turn_upper_value():
    # the degenerate angle takes the value from the right
    assert conley_zehnder(rotation_path(2 * math.pi, samples=1024)) == HalfInt.from_int(3)
    assert conley_zehnder(rotation_path(4 * math.pi, samples=1024)) == HalfInt.from_int(5)


def test_crossing_times_match_analytic_roots():
    omega = 3 * math.pi
    rep = brake_maslov_report(rotation_path(omega, samples=1024))
    # moving frame R(omega t) L1 meets L1 where sin(omega t) = 0, t in [0, 1/2]
    want = [0.0, math.pi / omega]
    got = sorted(c.time for c in rep.crossings)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-7)
    assert all(c.dim == 1 and c.signature == 1 for c in rep.crossings)


def test_negative_hyperbolic_iterates_grade_linearly():
    # cz of the m-fold cover of the model with eigenvalues (-2, -1/2) is m;
    # interior crossings sit where cos(pi t)(2^t + 2^-t) = 2
    base = hyperbolic_path(-2.0, samples=513)

    def trace_minus_two(t):
        return math.cos(math.pi * t) * (2.0 ** t + 2.0 ** -t) - 2.0

    for m in (1, 2, 3, 4):
        rep = conley_zehnder_report(iterate_path(base, m))
        assert rep.value == HalfInt.from_int(m), f"m={m}: {rep.value}"
        interior = [c for c in rep.crossings if c.time > 1e-9]
        roots = []
        for a in np.arange(0.25, m - 0.25, 0.5):
            fa, fb = trace_minus_two(a), trace_minus_two(a + 0.5)
            if fa * fb < 0:
                roots.append(scipy.optimize.brentq(trace_minus_two, a, a + 0.5))
        assert len(interior) == len(roots)
        for c, r in zip(sorted(c.time for c in interior), sorted(roots)):
            assert c == pytest.approx(r, abs=1e-7)


def test_nullities_table():
    assert nullities(rotation_path(2 * math.pi, samples=513)) == (2, 1, 1)
    assert nullities(rotation_path(math.pi, samples=513)) == (0, 0, 0)
    assert nullities(hyperbolic_path(-2.0, samples=257)) == (0, 0, 0)
    two_block = rotation_path(2 * math.pi, n=2, samples=513)
    assert nullities(two_block) == (4, 2, 2)


def test_rs_index_is_additive_under_splitting():
    path = rotation_path(3 * math.pi, samples=1025)
    lag = lagrangian_l1(1)
    moving = LagrangianPath.from_symplectic(path, lag)
    const = LagrangianPath.constant(lag, (0.0, 1.0))
    whole = maslov_index(const, moving).value
    split = 0.41  # not a crossing
    left = maslov_index(LagrangianPath.constant(lag, (0.0, split)),
                        moving.restricted(0.0, split)).value
    right = maslov_index(LagrangianPath.constant(lag, (split, 1.0)),
                         moving.restricted(split, 1.0)).value
    assert left + right == whole


def test_rs_index_flips_under_reversal():
    path = rotation_path(5.0, samples=513)
    lag = lagrangian_l1(1)
    moving = LagrangianPath.from_symplectic(path, lag)
    const = LagrangianPath.constant(lag, (0.0, 1.0))
    fwd = maslov_index(const, moving).value
    bwd = maslov_index(LagrangianPath.constant(lag, (0.0, 1.0)),
                       moving.reversed()).value
    assert fwd + bwd == HalfInt(0)


def test_loop_shift_laws():
    path = rotation_path(1.3, samples=513)
    base_cz = conley_zehnder(path)
    base_mu = brake_maslov(path)
    for k in (-1, 2):
        loop = diagonal_unitary_loop((k,))
        assert cz_of_product(loop, path) == base_cz + HalfInt.from_int(2 * k)
        assert mu1_of_product(loop, path) == base_mu + HalfInt.from_int(k)
        # oracle: the product is itself a rotation path
        direct = conley_zehnder(rotation_path(2 * math.pi * k + 1.3, samples=513))
        assert cz_of_product(loop, path) == direct


def _angle_path(angle, samples=257, interval=(0.0, 1.0)):
    """Moving line span{(sin a(t), cos a(t))} in R^2."""
    j = standard_symplectic(1)

    def frame(t):
        return np.array([[math.sin(angle(t))], [math.cos(angle(t))]])

    times = np.linspace(interval[0], interval[1], samples)
    return LagrangianPath(frame, times, j)


def test_tangential_crossing_raises_in_strict_mode():
    moving = _angle_path(lambda t: (t - 0.5) ** 3)
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    with pytest.raises(IrregularCrossing):
        maslov_index(const, moving)
    rep = maslov_index(const, moving, strict=False)
    inner = [c for c in rep.crossings if 0.0 < c.time < 1.0]
    assert len(inner) == 1 and not inner[0].regular
    assert inner[0].time == pytest.approx(0.5, abs=1e-4)


def test_colliding_crossings_raise_undersampled():
    # two transversal crossings 2e-4 apart inside one sample cell
    moving = _angle_path(lambda t: (t - 0.5) ** 2 - 1e-8, samples=257)
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    with pytest.raises(Undersampled):
        maslov_index(const, moving)


def test_pair_index_validates_intervals_and_forms():
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    other = LagrangianPath.constant(lagrangian_l1(1), (0.0, 2.0))
    with pytest.raises(ValidationError):
        maslov_index(const, other)
    const4 = LagrangianPath.constant(lagrangian_l1(2), (0.0, 1.0))
    with pytest.raises(ValidationError):
        maslov_index(const, const4)


def test_index_routines_need_based_paths():
    path = rotation_path(1.0, samples=65).restricted(0.25, 0.75)
    with pytest.raises(ValidationError):
        conley_zehnder(path)
    with pytest.raises(ValidationError):
        brake_maslov(path)
    with pytest.raises(ValidationError):
        brake_maslov(rotation_path(1.0, samples=65), k=3)
    with pytest.raises(ValidationError):
        brake_maslov_report(rotation_path(1.0, samples=65), k=3)
    # based, but on an interval that does not start at 0
    base = rotation_path(1.0)
    times = np.linspace(0.5, 1.5, 65)
    late = SymplecticPath(times, np.stack([base.value_at(t - 0.5) for t in times]),
                          based=True)
    for index in (brake_maslov, brake_maslov_report):
        with pytest.raises(ValidationError):
            index(late)


def test_brake_index_second_lagrangian():
    # mu2 uses L2 = R^n x {0}; for rotations it matches mu1 by symmetry
    for omega in (math.pi, 3 * math.pi, 5.0):
        p = rotation_path(omega, samples=1024)
        assert brake_maslov(p, k=2) == brake_maslov(p, k=1)


def test_conley_zehnder_report_carries_endpoint_nullities():
    rep = conley_zehnder_report(rotation_path(2 * math.pi, samples=1024))
    assert rep.endpoint_nullities == (2, 2)
    rep2 = conley_zehnder_report(rotation_path(1.0, samples=257))
    assert rep2.endpoint_nullities == (2, 0)


def test_lagrangian_path_graph_dimensions():
    path = rotation_path(1.0, n=2, samples=65)
    graph = LagrangianPath.graph(path)
    assert graph.frame_at(0.3).shape == (8, 4)
    proj = graph.projector_at(0.3)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10
