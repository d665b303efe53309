"""Structure constants, paths, loops, and the exact half-integer type."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from brakeindex.core import (
    HalfInt,
    Lagrangian,
    SymplecticPath,
    UnitaryLoop,
    brake_involution,
    check_brake_symmetry,
    diagonal_unitary_loop,
    fundamental_solution,
    hyperbolic_path,
    lagrangian_diagonal,
    lagrangian_graph,
    lagrangian_l1,
    lagrangian_l2,
    loop_degree,
    pointwise_product,
    product_form,
    project_symplectic,
    rotation_path,
    standard_symplectic,
    symplectic_residual,
)
from brakeindex.errors import (
    PhaseJumpTooLarge,
    SymplecticityLost,
    ValidationError,
)
from brakeindex.hamiltonian import find_brake_orbit, linearized_path, polynomial_system
from brakeindex.moduli import iterate_path


def test_halfint_arithmetic():
    h = HalfInt(3)
    assert float(h) == 1.5
    assert repr(h) == "3/2"
    assert HalfInt.from_int(2) == HalfInt(4) == 2
    assert h + HalfInt(1) == HalfInt.from_int(2)
    assert h - 1 == HalfInt(1)
    assert -h == HalfInt(-3)
    assert 1 - h == HalfInt(-1)
    assert h * 2 == HalfInt.from_int(3)
    assert HalfInt(4).is_integer and not h.is_integer
    assert int(HalfInt(4)) == 2
    with pytest.raises(ValueError):
        int(h)
    assert hash(HalfInt(2)) == hash(HalfInt(2))
    assert HalfInt(2) != HalfInt(3)


def test_halfint_rejects_floats():
    with pytest.raises(TypeError):
        HalfInt(1.5)
    with pytest.raises(TypeError):
        HalfInt(3) + 0.25


def test_structure_constants():
    for n in (1, 2, 3):
        j = standard_symplectic(n)
        n0 = brake_involution(n)
        eye = np.eye(2 * n)
        assert np.array_equal(j @ j, -eye)
        assert np.array_equal(n0 @ n0, eye)
        # the involution is antisymplectic
        assert np.array_equal(n0.T @ j @ n0, -j)


def test_product_form_blocks():
    jt = product_form(1)
    j = standard_symplectic(1)
    assert np.array_equal(jt[:2, :2], -j)
    assert np.array_equal(jt[2:, 2:], j)
    assert np.max(np.abs(jt[:2, 2:])) == 0


def test_project_symplectic_contracts_both_defect_modes():
    # regression: the retraction used to double the defect component that
    # commutes with J0, blowing up after ~50 applications
    rng = np.random.default_rng(11)
    s = rng.standard_normal((4, 4))
    s = (s + s.T) / 2
    m0 = scipy.linalg.expm(standard_symplectic(2) @ s)
    m = m0 + 1e-6 * rng.standard_normal((4, 4))
    res = symplectic_residual(m)
    assert res > 1e-7
    for _ in range(3):
        m = project_symplectic(m)
    assert symplectic_residual(m) < 1e-13
    # repeated application must stay put, not diverge
    for _ in range(60):
        m = project_symplectic(m)
    assert symplectic_residual(m) < 1e-13


def test_fundamental_solution_matches_expm():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        s = rng.standard_normal((2 * n, 2 * n)) * 2.0
        s = (s + s.T) / 2
        j = standard_symplectic(n)
        path = fundamental_solution(lambda t: s, (0.0, 1.0), steps=2048)
        exact = scipy.linalg.expm(j @ s)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(path.end_value() - exact)) / scale < 1e-9
        assert path.based


def test_fundamental_solution_is_fourth_order():
    s = np.diag([3.0, 1.0])
    j = standard_symplectic(1)
    exact = scipy.linalg.expm(j @ s)

    def err(steps):
        p = fundamental_solution(lambda t: s, (0.0, 1.0), steps=steps)
        return np.max(np.abs(p.end_value() - exact))

    e1, e2 = err(64), err(128)
    assert e1 / e2 > 12  # h^4 convergence gives ~16


def test_fundamental_solution_time_dependent():
    # S(t) = theta'(t) I integrates to a rotation by theta(1) - theta(0)
    theta = lambda t: 1.3 * t + 0.4 * math.sin(2 * math.pi * t) ** 2
    dtheta = lambda t: 1.3 + 0.8 * math.sin(2 * math.pi * t) * math.cos(
        2 * math.pi * t) * 2 * math.pi
    path = fundamental_solution(lambda t: dtheta(t) * np.eye(2), steps=2048)
    a = theta(1.0) - theta(0.0)
    want = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    assert np.max(np.abs(path.end_value() - want)) < 1e-9


def test_symplecticity_loss_stops_at_the_failing_step():
    # a 15.6 rad step wrecks the first sample; integrating on from it
    # would overflow, so the error must come from that first step
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SymplecticityLost) as err:
            fundamental_solution(lambda t: 1e3 * np.eye(2), steps=64)
    assert str(err.value) == "residual 5.31e+19 at t=0.015625 exceeds 1.0e-09"


def test_rotation_path_values():
    omega = 2.7
    path = rotation_path(omega, samples=129)
    for t in (0.0, 0.31, 1.0):
        a = omega * t
        want = np.array([[math.cos(a), -math.sin(a)],
                         [math.sin(a), math.cos(a)]])
        assert np.max(np.abs(path.value_at(t) - want)) < 1e-12
    assert path.based
    assert check_brake_symmetry(path) < 1e-10


def test_hyperbolic_path_monodromy():
    lam = -2.0
    path = hyperbolic_path(lam, samples=257)
    mono = path.end_value()
    eigs = np.sort(np.linalg.eigvals(mono).real)
    assert eigs == pytest.approx([-2.0, -0.5], abs=1e-10)
    # trace follows cos(pi t) (2^t + 2^-t) along the whole path
    for t in (0.2, 0.55, 0.9):
        want = math.cos(math.pi * t) * (2.0 ** t + 2.0 ** -t)
        assert np.trace(path.value_at(t)) == pytest.approx(want, abs=1e-10)


def test_symplectic_path_restricted_and_reversed():
    path = rotation_path(3.0, samples=65)
    sub = path.restricted(0.25, 0.75)
    assert (sub.a, sub.b) == (0.25, 0.75)
    assert np.max(np.abs(sub.value_at(0.5) - path.value_at(0.5))) < 1e-12
    rev = path.reversed()
    assert np.max(np.abs(rev.value_at(rev.a) - path.value_at(path.b))) < 1e-12
    assert np.max(np.abs(rev.value_at(rev.b) - path.value_at(path.a))) < 1e-12


def test_symplectic_path_validation():
    eye = np.eye(2)
    with pytest.raises(ValidationError):
        SymplecticPath([0.0], [eye])
    with pytest.raises(ValidationError):
        SymplecticPath([0.0, 0.0], [eye, eye])
    with pytest.raises(SymplecticityLost):
        SymplecticPath([0.0, 1.0], [eye, np.diag([2.0, 3.0])])
    # based path must start exactly at the identity
    shift = np.array([[1.0, 1e-3], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        SymplecticPath([0.0, 1.0], [shift, shift], based=True)


def test_interpolation_agrees_with_evaluator():
    path = rotation_path(5.0, samples=4097)
    bare = SymplecticPath(path.times, path.values, based=True)
    for t in (0.123, 0.5571, 0.93):
        assert np.max(np.abs(bare.value_at(t) - path.value_at(t))) < 1e-6


def test_lagrangian_frames():
    l1 = lagrangian_l1(2)
    l2 = lagrangian_l2(2)
    assert l1.dim == 2 and l2.dim == 2
    j = standard_symplectic(2)
    for lag in (l1, l2):
        assert np.max(np.abs(lag.frame.T @ j @ lag.frame)) < 1e-12
    # span checks: l1 is {0} x R^n, l2 is R^n x {0}
    assert np.max(np.abs(l1.frame[:2, :])) < 1e-12
    assert np.max(np.abs(l2.frame[2:, :])) < 1e-12


def test_lagrangian_rejects_non_isotropic():
    frame = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        Lagrangian(frame)


def test_lagrangian_default_form_in_two_dimensions():
    # a 2x1 frame lives in R^2 and must pick up J0 of the right size
    lag = Lagrangian(np.array([[1.0], [0.0]]))
    assert lag.dim == 1


def test_graph_is_lagrangian_in_product_form():
    rng = np.random.default_rng(5)
    s = rng.standard_normal((4, 4))
    m = scipy.linalg.expm(standard_symplectic(2) @ (s + s.T) / 2)
    graph = lagrangian_graph(m)
    jt = product_form(2)
    assert np.max(np.abs(graph.frame.T @ jt @ graph.frame)) < 1e-9
    diag = lagrangian_diagonal(2)
    assert np.max(np.abs(diag.frame.T @ jt @ diag.frame)) < 1e-12


def test_diagonal_unitary_loop_degrees():
    for k in (-2, -1, 0, 1, 2):
        assert loop_degree(diagonal_unitary_loop((k,))) == k
    assert loop_degree(diagonal_unitary_loop((1, -2))) == -1


def _rotation(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def test_phase_unitary_loop_winding():
    # an Sp(2) loop R(theta(t)) whose phase speeds up and slows down; the
    # sampled loop, with no evaluator, is read through interpolation
    theta = lambda t: 2 * math.pi * 2 * t + 0.3 * math.sin(2 * math.pi * t)
    times = np.linspace(0.0, 1.0, 257)
    loop = UnitaryLoop(times, np.stack([_rotation(theta(t)) for t in times]))
    assert loop_degree(loop) == 2
    assert loop_degree(loop, samples=400) == 2


def test_loop_degree_undersampled():
    # 20 turns over 32 cells: each step jumps by 5/8 of a turn
    loop = diagonal_unitary_loop((20,), samples=33)
    with pytest.raises(PhaseJumpTooLarge):
        loop_degree(loop)


def test_unitary_loop_must_close():
    times = np.linspace(0.0, 1.0, 9)
    vals = np.stack([np.array([[math.cos(a), -math.sin(a)],
                               [math.sin(a), math.cos(a)]])
                     for a in 1.0 * times])
    with pytest.raises(ValidationError):
        UnitaryLoop(times, vals)


def test_pointwise_product_adds_rotation_angles():
    loop = diagonal_unitary_loop((1,))
    path = rotation_path(1.1, samples=513)
    prod = pointwise_product(loop, path)
    a = 2 * math.pi + 1.1
    want = np.array([[math.cos(a * 0.4), -math.sin(a * 0.4)],
                     [math.sin(a * 0.4), math.cos(a * 0.4)]])
    assert np.max(np.abs(prod.value_at(0.4) - want)) < 1e-9


def test_brake_symmetry_residual_detects_violation():
    sym = rotation_path(2.0, samples=129)
    assert check_brake_symmetry(sym) < 1e-10

    def skew(t):
        a = 2.0 * t + 0.3 * t * t
        return np.array([[math.cos(a), -math.sin(a)],
                         [math.sin(a), math.cos(a)]])

    times = np.linspace(0.0, 1.0, 129)
    crooked = SymplecticPath(times, np.stack([skew(t) for t in times]),
                             based=True, evaluator=skew)
    assert check_brake_symmetry(crooked) > 1e-3


def _nodes_and_cells(times, every=16):
    """Every node, then one point inside every ``every``-th cell."""
    inside = times[:-1:every] + 0.37 * np.diff(times)[::every]
    return np.concatenate([times, inside])


def test_values_at_equals_stacked_value_at():
    exact = rotation_path(3.0, samples=33)
    sampled = SymplecticPath(exact.times, exact.values, based=True)
    loop = diagonal_unitary_loop((1,), samples=33)
    paths = [
        exact, sampled,
        exact.restricted(0.2, 0.9), sampled.restricted(0.25, 0.75),
        exact.reversed(), sampled.reversed(),
        iterate_path(exact, 3), iterate_path(sampled, 2),
        pointwise_product(loop, sampled), pointwise_product(exact, sampled),
    ]
    for path in paths:
        ts = _nodes_and_cells(path.times, every=8)
        want = np.stack([path.value_at(t) for t in ts])
        assert np.array_equal(path.values_at(ts), want)
    with pytest.raises(ValidationError):
        sampled.values_at([0.5, 1.1])


def test_derived_paths_sample_their_source_exactly():
    exact = rotation_path(3.0, samples=65)
    sampled = SymplecticPath(exact.times, exact.values, based=True)
    sub = sampled.restricted(0.21, 0.75)
    want = np.stack([sampled.value_at(t) for t in sub.times])
    assert np.array_equal(sub.values, want)
    loop = diagonal_unitary_loop((1,), samples=65)
    for left, lval in ((loop, loop.value_at), (exact, exact.value_at)):
        prod = pointwise_product(left, sampled)
        want = np.stack([lval(t) @ sampled.value_at(t) for t in sampled.times[1:]])
        assert np.array_equal(prod.values[1:], want)


def _pointwise_brake_residual(path, ts):
    """The brake residual of a path, one reflected time after another."""
    n0 = brake_involution(path.n)
    mono_inv = np.linalg.inv(path.end_value())
    res = 0.0
    for t in ts:
        lhs = path.value_at(path.b - (t - path.a)) @ mono_inv
        rhs = n0 @ path.value_at(t) @ n0
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res


def test_symmetric_grid_route_matches_pointwise_route():
    quartic = polynomial_system(1, [(0.5, (2, 0)), (0.5, (0, 2)), (0.15, (0, 4))])
    orbit = find_brake_orbit(quartic, 0.5, np.array([0.9]), 5.6, steps=256)
    # N0 S(-t) N0 = S(t): diagonal part even in t, coupling odd
    coupling = np.array([[0.0, 1.0], [1.0, 0.0]])
    coeff = lambda t: (np.diag([2.0 + 0.5 * math.cos(2 * math.pi * t), 3.0])
                       + 0.4 * math.sin(2 * math.pi * t) * coupling)
    for path in (linearized_path(orbit, steps=512),
                 fundamental_solution(coeff, steps=512)):
        fast = check_brake_symmetry(path)
        assert fast < 1e-7
        assert abs(fast - _pointwise_brake_residual(path, path.times)) < 1e-12
        ts = np.linspace(path.a, path.b, 97)
        slow = _pointwise_brake_residual(path, ts)
        assert abs(check_brake_symmetry(path, samples=97) - slow) < 1e-12


def _geometric_grid(samples=33):
    return (np.geomspace(1.0, 3.0, samples) - 1.0) / 2.0


def _sampled_rotation(angle, times):
    return np.stack([_rotation(angle(t)) for t in times])


def test_asymmetric_grid_falls_back_to_pointwise_route():
    times = _geometric_grid()
    assert np.max(np.abs(times + times[::-1] - 1.0)) > 1e-3
    angle = lambda t: 2.0 * t
    for evaluator in (lambda t: _rotation(angle(t)), None):
        path = SymplecticPath(times, _sampled_rotation(angle, times), based=True,
                              evaluator=evaluator)
        res = check_brake_symmetry(path)
        # reversing the node order of this grid does not reflect time, so
        # only the per-point route reads a brake-symmetric path as symmetric
        assert res == _pointwise_brake_residual(path, times)
        assert res < 1e-8


def test_violation_shows_on_either_grid():
    angle = lambda t: 2.0 * t + 0.3 * t * t
    for times in (np.linspace(0.0, 1.0, 129), _geometric_grid()):
        for evaluator in (lambda t: _rotation(angle(t)), None):
            crooked = SymplecticPath(times, _sampled_rotation(angle, times),
                                     based=True, evaluator=evaluator)
            assert check_brake_symmetry(crooked) > 1e-3
