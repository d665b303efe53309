"""Hamiltonian systems, integration, shooting, and linearized grading."""

import math

import numpy as np
import pytest

from brakeindex.core import HalfInt, check_brake_symmetry, fundamental_solution
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
