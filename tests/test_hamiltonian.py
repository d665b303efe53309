"""Hamiltonian systems, integration, shooting, and linearized grading."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from brakeindex import hamiltonian
from brakeindex.config import DEFAULT
from brakeindex.core import HalfInt, _magnus_steps, check_brake_symmetry, fundamental_solution
from brakeindex.errors import (
    DegenerateOrbit,
    EnergyDrift,
    LeftEnergySurface,
    NoConvergence,
    RadialDegeneracy,
    SymmetryViolated,
    ValidationError,
)
from brakeindex.hamiltonian import (
    HamiltonianSystem,
    _escape_check,
    _rk4,
    _rk4_state,
    anisotropic_system,
    check_field_symmetry,
    find_brake_orbit,
    harmonic_system,
    integrate_orbit,
    linearized_path,
    polynomial_system,
    reeb_factor,
)
from brakeindex.indices import brake_maslov, nullities


def test_harmonic_values_and_field():
    sys1 = harmonic_system(1)
    z = np.array([0.3, -0.4])
    assert sys1.value(z) == pytest.approx(0.5 * 0.25)
    assert np.allclose(sys1.gradient(z), z)
    # field J grad H rotates the gradient
    assert np.allclose(sys1.field(z), [0.4, 0.3])


def test_anisotropic_system_weights():
    sys2 = anisotropic_system([4.0])
    z = np.array([0.2, 0.5])
    assert sys2.value(z) == pytest.approx(0.5 * (0.04 + 4.0 * 0.25))
    assert np.allclose(sys2.gradient(z), [0.2, 2.0])


def test_polynomial_gradient_and_hessian():
    terms = [(0.5, (2, 0)), (0.5, (0, 2)), (0.25, (0, 4))]
    sysp = polynomial_system(1, terms)
    rng = np.random.default_rng(17)
    z = rng.standard_normal(2)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (sysp.value(z + e) - sysp.value(z - e)) / (2 * h)
        assert sysp.gradient(z)[i] == pytest.approx(fd, abs=1e-7)
    hess = sysp.hessian(z)
    fd_hess = np.empty((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd_hess[:, i] = (sysp.gradient(z + e) - sysp.gradient(z - e)) / (2 * h)
    assert np.max(np.abs(hess - fd_hess)) < 1e-6


def test_polynomial_derivative_tables_match_per_term_sums():
    # reference: the derivative of every term, formed at each call
    terms = [(0.5, (2, 0, 0, 0)), (0.7, (0, 2, 1, 0)), (0.5, (0, 0, 2, 0)),
             (0.5, (0, 0, 0, 2)), (0.15, (0, 0, 3, 1)), (-0.2, (2, 0, 0, 2))]
    sysp = polynomial_system(2, terms)
    parsed = [(float(c), np.asarray(e)) for c, e in terms]

    def gradient(z):
        g = np.zeros(4)
        for c, e in parsed:
            for i in np.nonzero(e)[0]:
                d = e.copy()
                d[i] -= 1
                g[i] += c * e[i] * np.prod(z ** d)
        return g

    def hessian(z):
        h = np.zeros((4, 4))
        for c, e in parsed:
            for i in np.nonzero(e)[0]:
                d = e.copy()
                d[i] -= 1
                for j in np.nonzero(d)[0]:
                    dd = d.copy()
                    dd[j] -= 1
                    h[i, j] += c * e[i] * d[j] * np.prod(z ** dd)
        return 0.5 * (h + h.T)

    rng = np.random.default_rng(23)
    for _ in range(20):
        z = rng.standard_normal(4)
        assert np.array_equal(sysp.gradient(z), gradient(z))
        assert np.array_equal(sysp.hessian(z), hessian(z))


def test_polynomial_brake_symmetry_enforced():
    # a term odd in p cannot appear in a brake-symmetric Hamiltonian
    with pytest.raises(ValidationError):
        polynomial_system(1, [(1.0, (1, 2))], symmetric=True)
    crooked = polynomial_system(1, [(1.0, (1, 2))], symmetric=False)
    assert check_field_symmetry(crooked) > 1e-3
    assert check_field_symmetry(harmonic_system(2)) < 1e-12


def test_system_probe_catches_wrong_gradient():
    with pytest.raises(ValidationError):
        HamiltonianSystem(1, lambda z: float(z @ z),
                          lambda z: 3.0 * z + 1.0)


def test_integrate_orbit_circle():
    sys1 = harmonic_system(1)
    z0 = np.array([0.0, 1.0])
    times, states = integrate_orbit(sys1, z0, (0.0, 2 * math.pi), steps=2048)
    assert np.max(np.abs(states[-1] - z0)) < 1e-9
    # analytic solution rotates (p, q)
    k = len(times) // 4
    t = times[k]
    want = np.array([-math.sin(t), math.cos(t)])
    assert np.max(np.abs(states[k] - want)) < 1e-9


def test_integrate_orbit_flags_energy_drift():
    sys1 = harmonic_system(1)
    with pytest.raises(EnergyDrift):
        integrate_orbit(sys1, np.array([0.0, 1.0]), (0.0, 50.0),
                        steps=64, tol_energy=1e-12)


def test_runaway_trajectory_detected():
    runaway = polynomial_system(1, [(1.0, (1, 1))], symmetric=False,
                                name="shear")
    with pytest.raises(LeftEnergySurface):
        integrate_orbit(runaway, np.array([1.0, 1.0]), (0.0, 25.0), steps=4096,
                        tol_energy=np.inf)


def test_find_brake_orbit_harmonic():
    sys1 = harmonic_system(1)
    orbit = find_brake_orbit(sys1, 0.5, np.array([1.07]), 6.1, steps=512,
                             tol=1e-10)
    assert orbit.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert orbit.energy == pytest.approx(0.5)
    # starts on L1 = {p = 0} and turns on it halfway
    assert abs(orbit.start[0]) < 1e-12
    assert abs(orbit.turning_point[0]) < 1e-8
    assert np.linalg.norm(orbit.start[1]) == pytest.approx(1.0, abs=1e-10)


def test_find_brake_orbit_anisotropic_period():
    sys2 = anisotropic_system([4.0])
    orbit = find_brake_orbit(sys2, 0.5, np.array([0.4]), 3.0, steps=512,
                             tol=1e-10)
    assert orbit.period == pytest.approx(math.pi, abs=1e-8)
    assert abs(orbit.start[1]) == pytest.approx(0.5, abs=1e-10)


def test_linearized_path_grades_harmonic_orbit():
    sys1 = harmonic_system(1)
    orbit = find_brake_orbit(sys1, 0.5, np.array([0.93]), 6.2, steps=512,
                             tol=1e-10)
    path = linearized_path(orbit, steps=2048)
    assert check_brake_symmetry(path) < 1e-7
    # the linearization is the full rotation R(t), so mu1 = 1 and the
    # orbit is degenerate in the energy direction
    assert brake_maslov(path) == HalfInt.from_int(1)
    assert nullities(path) == (2, 1, 1)
    t = orbit.period / 4
    want = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert np.max(np.abs(path.value_at(t) - want)) < 1e-6


@pytest.mark.parametrize("steps", [512, 2048])
@pytest.mark.parametrize("system, q_guess, period_guess", [
    (harmonic_system(1), [1.0], 6.2),
    (anisotropic_system([1.0, 2.3]), [0.0, 0.8], 4.0),
], ids=["harmonic", "anisotropic"])
def test_linearized_path_equals_fundamental_solution_for_constant_hessian(
        system, q_guess, period_guess, steps):
    # with H'' constant the frame rows of the joint (state, frame) flow
    # take exactly the steps of the fundamental solution of H''
    orbit = find_brake_orbit(system, 0.5, np.array(q_guess), period_guess, steps=512)
    hess = system.hessian(orbit.start)
    want = fundamental_solution(lambda t: hess, (0.0, orbit.period), steps=steps)
    assert np.array_equal(linearized_path(orbit, steps=steps).values, want.values)


def test_shooting_requires_symmetric_field():
    crooked = polynomial_system(1, [(0.5, (2, 0)), (0.5, (0, 2)),
                                    (0.1, (1, 2))], symmetric=False)
    with pytest.raises(SymmetryViolated):
        find_brake_orbit(crooked, 0.5, np.array([1.0]), 6.0)


def test_shooting_reports_no_convergence():
    sys1 = harmonic_system(1)
    with pytest.raises(NoConvergence):
        find_brake_orbit(sys1, 0.5, np.array([1.0]), 1.5, steps=256)


def test_shooting_rejects_critical_start():
    # H = p^2/2 - q^2/2 + q^4/4 has a critical point on the level
    # h = -1/4 at q = 1; shooting from it converges to the constant
    # "orbit", which must be refused rather than returned
    wells = polynomial_system(1, [(0.5, (2, 0)), (-0.5, (0, 2)),
                                  (0.25, (0, 4))])
    with pytest.raises(DegenerateOrbit):
        find_brake_orbit(wells, -0.25, np.array([1.0]), 4.0, steps=256)


def test_unreachable_energy_is_degenerate():
    sys1 = harmonic_system(1)
    with pytest.raises(RadialDegeneracy):
        find_brake_orbit(sys1, -1.0, np.array([1.0]), 6.0)


def test_reeb_factor():
    sys1 = harmonic_system(1)
    z = np.array([0.0, 1.0])
    assert reeb_factor(sys1, z) == pytest.approx(2.0)
    with pytest.raises(RadialDegeneracy):
        reeb_factor(sys1, np.zeros(2))


def _variational_reference(orbit, times):
    """The frame of the joint state-and-frame run by DOP853 at tight
    tolerances, at ``times``: (len(times), 2n, 2n)."""
    system = orbit.system
    d = 2 * system.n

    def rhs(t, y):
        z = y[:d]
        frame = system._j0 @ system.hessian(z) @ y[d:].reshape(d, d)
        return np.concatenate((system.field(z), frame.ravel()))

    y0 = np.concatenate((orbit.start, np.eye(d).ravel()))
    sol = scipy.integrate.solve_ivp(rhs, (0.0, orbit.period), y0, method="DOP853",
                                    rtol=1e-13, atol=1e-14, t_eval=times)
    return sol.y[d:].T.reshape(-1, d, d)


_QUARTIC = polynomial_system(1, [(0.5, (2, 0)), (0.5, (0, 2)), (0.1, (0, 4))])


@pytest.fixture(scope="module", params=[
    (harmonic_system(1), [1.0], 6.2),
    (anisotropic_system([1.0, 2.3]), [0.0, 0.8], 4.0),
    (_QUARTIC, [0.9], 6.0),
], ids=["harmonic", "anisotropic", "quartic"])
def closed_orbit(request):
    system, q_guess, period_guess = request.param
    return find_brake_orbit(system, 0.5, np.array(q_guess), period_guess, steps=512)


@pytest.mark.parametrize("steps", [None, 512, 128])
def test_linearized_path_equals_the_joint_state_and_frame_run(closed_orbit, steps):
    # at the default step count the orbit's own samples are the state; at
    # 512 and 128 steps the state is integrated again on a coarser grid.
    # The quartic orbit, whose Hessian moves, sets the bounds (measured
    # 7.9e-13, 3.0e-9 and 8.0e-7); the opposite commutator sign in the
    # Magnus step gives about 5e-6 at 512 steps
    path = linearized_path(closed_orbit, steps=steps)
    m = len(path.times) - 1
    assert (len(closed_orbit.states) == m + 1) == (steps is None)
    want = _variational_reference(closed_orbit, path.times)
    bound = {None: 1e-11, 512: 1e-8, 128: 2e-6}[steps]
    assert np.max(np.abs(path.values - want)) <= bound


@pytest.mark.parametrize("steps", [None, 512])
def test_linear_stages_step_by_their_propagators(closed_orbit, steps):
    # step i applies exp(Omega_i), with Omega_i from the Hessians at the
    # nodes and at the cubic Hermite midpoint of the state; here each
    # step is applied in its own iteration, where the run groups the
    # products by its prefix scan: equal up to rounding
    system = closed_orbit.system
    m = steps or len(closed_orbit.states) - 1
    h = closed_orbit.period / m
    if steps is None:
        states = closed_orbit.states
    else:
        states = _rk4_state(system, closed_orbit.start, (0.0, closed_orbit.period), m)
    f = np.stack([system.field(z) for z in states])
    mids = (states[:-1] + states[1:]) / 2 + h / 8 * (f[:-1] - f[1:])
    a = np.stack([system._j0 @ system.hessian(z) for z in states])
    a_mid = np.stack([system._j0 @ system.hessian(z) for z in mids])
    y = np.eye(2 * system.n)
    want = [y]
    for step in _magnus_steps(a[:-1], a_mid, a[1:], h):
        y = step @ y
        want.append(y)
    want = np.stack(want)
    got = linearized_path(closed_orbit, steps=steps).values
    assert np.max(np.abs(got - want)) <= 1e-12  # measured up to 6.8e-14


def test_stacked_rows_step_like_separate_runs(closed_orbit):
    # shooting integrates its points as rows of one state, each row with
    # its own step; every row must be the run it replaces
    system = closed_orbit.system
    n = system.n
    rng = np.random.default_rng(5)
    z0 = np.hstack([np.zeros((n + 1, n)),
                    closed_orbit.start[n:] * rng.uniform(0.9, 1.1, (n + 1, n))])
    halves = 0.5 * closed_orbit.period * rng.uniform(0.95, 1.05, n + 1)
    steps = 256
    got = _rk4(lambda t, z: system.fields(z), z0, 0.0, (halves / steps)[:, None], steps)
    for row, (z, half) in enumerate(zip(z0, halves)):
        assert np.array_equal(got[:, row], _rk4_state(system, z, (0.0, half), steps))


def test_shooting_runs_each_point_with_its_jacobian(closed_orbit, monkeypatch):
    # one run of n + 2 rows per point (the point and its n + 1 Jacobian
    # points): the start and every accepted step, then the closing run
    system = closed_orbit.system
    n = system.n
    runs, solves = [], []
    real_rk4, real_lstsq = hamiltonian._rk4, np.linalg.lstsq

    def counted_rk4(rhs, y0, t0, h, steps):
        runs.append((np.shape(y0), steps))
        return real_rk4(rhs, y0, t0, h, steps)

    def counted_lstsq(*args, **kwargs):
        solves.append(None)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "_rk4", counted_rk4)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    q_guess = 1.03 * closed_orbit.start[n:] + 0.01
    find_brake_orbit(system, 0.5, q_guess, 0.98 * closed_orbit.period, steps=256)
    assert len(solves) >= 2
    assert runs == [((n + 2, 2 * n), 256)] * (1 + len(solves)) + [((2 * n,), DEFAULT.ode_steps)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.01e8], ids=["nan", "inf", "far"])
def test_escape_stops_the_run_at_the_bad_step(bad):
    # the right-hand side is zero except on step 5 (from 0), which moves q
    # to bad
    calls = []

    def rhs(t, z):
        calls.append(t)
        return np.array([0.0, bad / 0.5 if len(calls) > 20 else 0.0])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LeftEnergySurface):
            _rk4(rhs, np.array([0.0, 1.0]), 0.0, 0.5, 10)
        assert len(calls) == 24
        # a stacked run stops at the same step when one row goes bad
        calls.clear()
        with pytest.raises(LeftEnergySurface):
            _rk4(lambda t, z: np.stack([np.zeros(2), rhs(t, z[1])]),
                 np.array([[0.0, 1.0], [0.0, 1.0]]), 0.0, 0.5, 10)
        assert len(calls) == 24
    # just inside the bound the run goes on
    _escape_check(np.array([0.0, 0.99e8]))


@pytest.mark.parametrize("n", [1, 2])
def test_polynomial_batches_equal_the_pointwise_terms(n):
    rng = np.random.default_rng(17 + n)
    terms = []
    for _ in range(7):
        powers = [int(k) for k in rng.integers(0, 4, 2 * n)]
        powers[0] += sum(powers[:n]) % 2  # even degree in p
        terms.append((float(rng.uniform(-1.0, 1.0)), powers))
    system = polynomial_system(n, terms)
    zs = 2.0 * rng.standard_normal((300, 2 * n))
    zs[::5, :n] = 0.0

    def term_sum(z, derivative):
        # the derivative tables summed literally, term after term
        g = np.zeros(2 * n)
        h = np.zeros((2 * n, 2 * n))
        for c, e in terms:
            e = np.array(e)
            for i in np.nonzero(e)[0]:
                d = e.copy()
                d[i] -= 1
                g[i] += c * e[i] * np.prod(z ** d)
                for j in np.nonzero(d)[0]:
                    dd = d.copy()
                    dd[j] -= 1
                    h[i, j] += c * e[i] * d[j] * np.prod(z ** dd)
        return g if derivative == 1 else 0.5 * (h + h.T)

    grads = np.stack([term_sum(z, 1) for z in zs])
    hess = np.stack([term_sum(z, 2) for z in zs])
    # the single-point gradient sums its own table; it must equal both
    # the literal sum and a row of the batch, the one shooting uses
    assert np.array_equal(np.stack([system.gradient(z) for z in zs]), grads)
    assert np.array_equal(system._gradients(zs), grads)
    assert np.array_equal(np.stack([system.hessian(z) for z in zs]), hess)
    assert np.array_equal(system.hessians(zs), hess)
    assert np.array_equal(system.fields(zs), np.stack([system.field(z) for z in zs]))
