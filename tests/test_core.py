"""Structure constants, paths, loops, and the exact half-integer type."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from brakeindex.asymptotic import SymmetricLoop

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
    lagrangian_l1,
    lagrangian_l2,
    loop_degree,
    pointwise_product,
    product_form,
    rotation_path,
    standard_symplectic,
    _PADE_THETAS,
    _expm,
    _interpolate,
    _symplectic_residuals,
)
from brakeindex.errors import (
    PhaseJumpTooLarge,
    SymplecticityLost,
    ValidationError,
)
from brakeindex.hamiltonian import find_brake_orbit, linearized_path, polynomial_system
from brakeindex.indices import LagrangianPath
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
    # a constant coefficient is stepped exactly, so the order shows on a
    # time-dependent one whose values do not commute
    j = standard_symplectic(1)

    def coeff(t):
        c = 0.7 * math.sin(2 * t)
        return np.array([[2.0 + math.cos(3 * t), c], [c, 1.0 + t * t]])

    ref = scipy.integrate.solve_ivp(
        lambda t, y: (j @ coeff(t) @ y.reshape(2, 2)).ravel(), (0.0, 1.0),
        np.eye(2).ravel(), method="DOP853", rtol=1e-13, atol=1e-14).y[:, -1]

    def err(steps):
        p = fundamental_solution(coeff, (0.0, 1.0), steps=steps)
        return np.max(np.abs(p.end_value() - ref.reshape(2, 2)))

    e1, e2 = err(64), err(128)
    assert e1 / e2 > 12  # h^4 convergence gives ~16


def test_fundamental_solution_time_dependent():
    # S(t) = theta'(t) I integrates to a rotation by theta(1) - theta(0)
    theta = lambda t: 1.3 * t + 0.4 * math.sin(2 * math.pi * t) ** 2
    dtheta = lambda t: 1.3 + 0.8 * math.sin(2 * math.pi * t) * math.cos(
        2 * math.pi * t) * 2 * math.pi
    path = fundamental_solution(lambda t: dtheta(t) * np.eye(2), steps=2048)
    for t in (0.3141, 0.777, 1.0):  # two times between nodes, then the end
        a = theta(t) - theta(0.0)
        want = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        assert np.max(np.abs(path.value_at(t) - want)) < 1e-9


def test_symplecticity_loss_stops_at_the_failing_step():
    # a non-symmetric B makes J0 B non-Hamiltonian (its flow scales areas
    # by e^t), so the first sample already fails, without an overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SymplecticityLost) as err:
            fundamental_solution(lambda t: np.array([[1.0, 0.5], [-0.5, 1.0]]), steps=64)
    assert str(err.value) == "residual 1.57e-02 at t=0.015625 exceeds 1.0e-09"


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
    gen = standard_symplectic(2) @ (s + s.T) / 2
    times = np.linspace(0.0, 1.0, 9)
    path = SymplecticPath(times, np.stack([scipy.linalg.expm(t * gen) for t in times]),
                          based=True)
    jt = product_form(2)
    frames = LagrangianPath.graph(path).frames(times)
    assert frames.shape == (9, 8, 4)
    assert np.max(np.abs(frames.transpose(0, 2, 1) @ jt @ frames)) < 1e-9
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
    batched = [rotation_path(-7.3, n=2, samples=33),
               rotation_path(2.0, n=2, interval=(-0.4, 1.3), samples=17),
               hyperbolic_path(2.5, samples=33), hyperbolic_path(-2.5, samples=33),
               hyperbolic_path(-2.5, interval=(0.0, 1.7), samples=17)]
    paths = [
        exact, sampled,
        exact.restricted(0.2, 0.9), sampled.restricted(0.25, 0.75),
        exact.reversed(), sampled.reversed(),
        iterate_path(exact, 3), iterate_path(sampled, 2),
        pointwise_product(loop, sampled), pointwise_product(exact, sampled),
        fundamental_solution(lambda t: np.eye(2), steps=16).reversed(),
    ] + batched + [p.reversed() for p in batched]
    for path in paths:
        ts = _nodes_and_cells(path.times, every=8)
        want = np.stack([path.value_at(t) for t in ts])
        assert np.array_equal(path.values_at(ts), want)
    with pytest.raises(ValidationError):
        sampled.values_at([0.5, 1.1])


def test_cell_log_cache_equals_fresh_interpolation():
    exact = rotation_path(3.0, samples=33)
    sampled = SymplecticPath(exact.times, exact.values, based=True)
    t0, t1 = sampled.times[5], sampled.times[6]
    first, second = t0 + 0.3 * (t1 - t0), t0 + 0.8 * (t1 - t0)
    # the first call stores the cell's log, the second reads it back
    for t in (first, second):
        assert np.array_equal(sampled.value_at(t),
                              _interpolate(sampled.times, sampled.values, t))
    assert list(sampled._logs) == [5]
    assert np.array_equal(sampled.values_at([first, second]),
                          np.stack([_interpolate(sampled.times, sampled.values, t)
                                    for t in (first, second)]))


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


def test_fundamental_solution_of_a_loop_equals_the_pointwise_route():
    # the loop's stage coefficients come in one batch; a plain callable
    # around the same loop is called per stage time
    rng = np.random.default_rng(3)

    def sym():
        m = rng.uniform(-1.0, 1.0, (4, 4))
        return m + m.T

    loop = SymmetricLoop.fourier(7.0 * np.eye(4) + sym(), cos={1: sym(), 2: sym()},
                                 sin={1: sym()}, tau=1.5)
    for interval in ((0.0, 1.0), (-0.4, 2.2)):
        got = fundamental_solution(loop, interval, steps=512)
        want = fundamental_solution(lambda t: loop(t), interval, steps=512)
        assert np.array_equal(got.values, want.values)
        t = interval[0] + 0.3141 * (interval[1] - interval[0])
        assert np.array_equal(got.value_at(t), want.value_at(t))


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.4, 2.2)])
def test_fundamental_solution_values_equal_stacked_calls(interval):
    # nodes give the stored sample, any other time one Magnus step from the
    # node before it; both ends, times within 1e-15 of a node and times
    # just past one are included
    path = fundamental_solution(lambda t: np.diag([1.0 + t, 2.0 - t]), interval, steps=64)
    at = path._evaluator
    times = path.times
    ts = np.concatenate([_nodes_and_cells(times, every=5), times[::9] + 4e-16,
                         times[1::9] + 3e-15, [times[0], times[-1], times[-1] - 1e-9]])
    want = np.stack([at(t) for t in ts])
    assert np.array_equal(at.values(ts), want)
    assert np.array_equal(path.values_at(ts), want)
    assert np.array_equal(at.values(times), path.values)
    half = path.restricted(path.a, (path.a + path.b) / 2)
    assert np.array_equal(half.values, np.stack([at(t) for t in half.times]))


def test_import_leaves_scipy_linalg_and_optimize_unloaded():
    # both are imported where they are used, so a CLI start-up skips them;
    # the linear flows exponentiate in numpy, so they skip scipy.linalg too
    code = ("import sys, brakeindex.cli\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))\n"
            "import numpy as np\n"
            "from brakeindex import core, hamiltonian as ham\n"
            "core.fundamental_solution(lambda t: np.diag([1.0 + t, 2.0]), steps=64)\n"
            "orbit = ham.find_brake_orbit(ham.harmonic_system(1), 0.5, np.array([1.0]), 6.2,\n"
            "                             steps=256)\n"
            "ham.linearized_path(orbit)\n"
            "print('scipy.linalg' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["[]", "False"]


def _hamiltonian_stack(rng, n, norms):
    """Random Hamiltonian matrices J0 S, one per 1-norm of ``norms``."""
    s = rng.standard_normal((len(norms), 2 * n, 2 * n))
    a = standard_symplectic(n) @ (s + s.transpose(0, 2, 1))
    return a * (np.asarray(norms) / _norm1(a))[:, None, None]


def _norm1(ms):
    return np.abs(ms).sum(axis=-2).max(axis=-1)


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_expm_matches_scipy_in_every_pade_band(n):
    # 1-norms just below and just above each degree's threshold, then deep
    # in the scaling branch.  Above norm 2.1 the gap is mostly scipy's own
    # error: against 40-digit mpmath at norm 5.37 (n = 1), this exponential
    # was off by 3.2e-15 and scipy's by 7.8e-13 (measured gaps: up to
    # 6.8e-16 below norm 2.1, 7.6e-13 near 5.37, 9.9e-12 at 200)
    rng = np.random.default_rng(40 + n)
    j = standard_symplectic(n)
    norms = np.concatenate([[1e-3], _PADE_THETAS * (1 - 1e-9), _PADE_THETAS * (1 + 1e-9),
                            [20.0, 200.0]])
    for norm in norms:
        a = _hamiltonian_stack(rng, n, np.full(16, norm))
        got = _expm(a)
        want = scipy.linalg.expm(a)
        bound = 2e-15 if norm <= _PADE_THETAS[3] else 1e-12 * norm
        assert np.max(_norm1(got - want) / _norm1(want)) <= bound
        # no projection: the diagonal Pade approximant of a Hamiltonian
        # matrix is symplectic up to roundoff (measured up to 1.6e-14)
        assert np.max(_symplectic_residuals(got, j) / _norm1(got) ** 2) <= 1e-13


def test_stacked_expm_gives_a_matrix_the_same_bits_alone_and_in_any_batch():
    # every degree, unscaled and scaled, the zero matrix and a non-finite
    # one, shuffled into one batch
    rng = np.random.default_rng(11)
    norms = np.concatenate([_PADE_THETAS * 0.9, _PADE_THETAS * 1.1, [0.0, 1e-3, 20.0, 200.0]])
    batch = _hamiltonian_stack(rng, 2, rng.permutation(norms))
    batch[2, 0, 1] = math.nan
    got = _expm(batch)
    for k, a in enumerate(batch):
        assert np.array_equal(_expm(a[None])[0], got[k], equal_nan=True)
    assert np.array_equal(_expm(np.zeros((1, 4, 4)))[0], np.eye(4))
    assert np.all(np.isnan(got[2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200], ids=["nan", "inf", "overflow"])
def test_non_finite_coefficient_fails_the_check_at_its_first_sample(bad):
    # from t = 0.55 on one entry is bad, so the step from 35/64, whose
    # midpoint is past 0.55, is the first bad one; no warning on the way
    def coeff(t):
        b = np.diag([1.0 + t, 2.0 - t])
        if t >= 0.55:
            b[0, 0] = bad
        return b

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SymplecticityLost) as err:
            fundamental_solution(coeff, steps=64)
    assert str(err.value) == "residual nan at t=0.5625 exceeds 1.0e-09"
