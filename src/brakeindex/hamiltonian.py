"""Hamiltonian systems, brake orbits, and their linearized flows.

States are z = (p, q) in R^2n and the flow is z' = J0 grad H(z).  A
system is brake symmetric when H(-p, q) = H(p, q); its brake orbits
start and turn around on the momentum zero section {p = 0}.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULT, Config
from .core import SymplecticPath, brake_involution, project_symplectic, standard_symplectic
from .errors import (
    DegenerateOrbit,
    EnergyDrift,
    LeftEnergySurface,
    NoConvergence,
    RadialDegeneracy,
    SymmetryViolated,
    ValidationError,
)


class HamiltonianSystem:
    """A smooth Hamiltonian on R^2n given by value/gradient callables.

    The gradient is spot-checked against finite differences of the value
    at seeded random points.  A missing hessian falls back to central
    differences of the gradient.
    """

    def __init__(self, n, value, gradient, hessian=None, name="", validate=True):
        self.n = int(n)
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        self.value = value
        self.gradient = gradient
        self.name = name or "custom"
        self._hessian = hessian
        self._j0 = standard_symplectic(self.n)
        if validate:
            self._probe()

    def _probe(self):
        rng = np.random.default_rng(20240517)
        for _ in range(3):
            z = rng.standard_normal(2 * self.n)
            g = np.asarray(self.gradient(z), dtype=float)
            if g.shape != (2 * self.n,):
                raise ValidationError("gradient has wrong shape")
            fd = np.empty_like(g)
            h = 1e-5 * (1.0 + np.abs(z))
            for j in range(2 * self.n):
                e = np.zeros(2 * self.n)
                e[j] = h[j]
                fd[j] = (self.value(z + e) - self.value(z - e)) / (2 * h[j])
            scale = 1.0 + np.linalg.norm(fd)
            if np.linalg.norm(g - fd) > 1e-3 * scale:
                raise ValidationError(
                    f"gradient of {self.name!r} disagrees with finite "
                    "differences of the value"
                )

    def hessian(self, z):
        if self._hessian is not None:
            return np.asarray(self._hessian(z), dtype=float)
        z = np.asarray(z, dtype=float)
        m = 2 * self.n
        out = np.empty((m, m))
        h = 1e-6 * (1.0 + np.abs(z))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h[j]
            gp = np.asarray(self.gradient(z + e), dtype=float)
            gm = np.asarray(self.gradient(z - e), dtype=float)
            out[:, j] = (gp - gm) / (2 * h[j])
        return 0.5 * (out + out.T)

    def field(self, z):
        """The Hamiltonian vector field J0 grad H."""
        return self._j0 @ np.asarray(self.gradient(z), dtype=float)


def harmonic_system(n=1):
    """H = |z|^2 / 2, all orbits circles of period 2 pi."""
    return HamiltonianSystem(
        n,
        value=lambda z: 0.5 * float(np.dot(z, z)),
        gradient=lambda z: np.asarray(z, dtype=float).copy(),
        hessian=lambda z: np.eye(2 * n),
        name="harmonic",
        validate=False,
    )


def anisotropic_system(weights):
    """H = |p|^2 / 2 + sum w_j q_j^2 / 2 with positive weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or np.any(w <= 0):
        raise ValidationError("weights must be a 1d positive array")
    n = w.size
    quad = np.concatenate([np.ones(n), w])

    return HamiltonianSystem(
        n,
        value=lambda z: 0.5 * float(np.dot(quad * z, z)),
        gradient=lambda z: quad * np.asarray(z, dtype=float),
        hessian=lambda z: np.diag(quad),
        name="anisotropic",
        validate=False,
    )


def polynomial_system(n, terms, symmetric=True, name="polynomial"):
    """Hamiltonian from a sparse term list [(coeff, powers), ...].

    Each powers entry lists the 2n exponents of one monomial in
    (p_1..p_n, q_1..q_n).  Brake symmetry is equivalent to every term
    having even total degree in the p variables; with ``symmetric`` the
    builder enforces that exactly.
    """
    n = int(n)
    parsed = []
    for coeff, powers in terms:
        e = np.asarray(powers, dtype=int)
        if e.shape != (2 * n,) or np.any(e < 0):
            raise ValidationError("each term needs 2n nonnegative exponents")
        parsed.append((float(coeff), e))
    if not parsed:
        raise ValidationError("term list is empty")
    if symmetric:
        for coeff, e in parsed:
            if int(np.sum(e[:n])) % 2:
                raise ValidationError(
                    f"term with powers {e.tolist()} breaks H(-p, q) = H(p, q)"
                )

    def value(z):
        z = np.asarray(z, dtype=float)
        return float(sum(c * np.prod(z ** e) for c, e in parsed))

    # derivative tables (index, coefficient, exponents), built once
    grad_terms = []
    hess_terms = []
    for c, e in parsed:
        for i in np.nonzero(e)[0]:
            d = e.copy()
            d[i] -= 1
            grad_terms.append((i, c * e[i], d))
            for j in np.nonzero(d)[0]:
                dd = d.copy()
                dd[j] -= 1
                hess_terms.append((i, j, c * e[i] * d[j], dd))

    def gradient(z):
        z = np.asarray(z, dtype=float)
        g = np.zeros(2 * n)
        for i, c, d in grad_terms:
            g[i] += c * np.prod(z ** d)
        return g

    def hessian(z):
        z = np.asarray(z, dtype=float)
        h = np.zeros((2 * n, 2 * n))
        for i, j, c, dd in hess_terms:
            h[i, j] += c * np.prod(z ** dd)
        return 0.5 * (h + h.T)

    return HamiltonianSystem(n, value, gradient, hessian, name=name)


def check_field_symmetry(system, samples=8, seed=7):
    """Sup residual of H(-p, q) - H(p, q) and the gradient identity
    grad H(N0 z) - N0 grad H(z) over seeded random points."""
    rng = np.random.default_rng(seed)
    n0 = brake_involution(system.n)
    worst = 0.0
    for _ in range(samples):
        z = rng.standard_normal(2 * system.n)
        dv = abs(system.value(n0 @ z) - system.value(z))
        g = np.asarray(system.gradient(z), dtype=float)
        gr = np.asarray(system.gradient(n0 @ z), dtype=float)
        dg = float(np.max(np.abs(gr - n0 @ g)))
        worst = max(worst, dv, dg)
    return worst


def _rk4_state(system, z0, t_span, steps):
    t0, t1 = t_span
    h = (t1 - t0) / steps
    z = np.asarray(z0, dtype=float).copy()
    out = np.empty((steps + 1, z.size))
    out[0] = z
    f = system.field
    for k in range(steps):
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > 1e8:
            raise LeftEnergySurface("trajectory escaped to infinity")
        out[k + 1] = z
    return out


def integrate_orbit(system, z0, t_span, steps=None, config: Config = DEFAULT,
                    tol_energy=1e-6):
    """Integrate z' = J0 grad H(z) with fixed-step RK4.

    Returns (times, states).  Raises EnergyDrift when H drifts by more
    than tol_energy relative to the energy scale.
    """
    steps = config.ode_steps if steps is None else int(steps)
    t0, t1 = t_span
    states = _rk4_state(system, z0, (t0, t1), steps)
    times = np.linspace(t0, t1, steps + 1)
    h0 = system.value(states[0])
    drift = max(abs(system.value(states[k]) - h0)
                for k in range(0, steps + 1, max(1, steps // 16)))
    if drift > tol_energy * (1.0 + abs(h0)):
        raise EnergyDrift(f"energy drifted by {drift:.3e} over [{t0}, {t1}]")
    return times, states


@dataclasses.dataclass(frozen=True)
class BrakeOrbit:
    system: HamiltonianSystem
    energy: float
    period: float
    start: np.ndarray
    times: np.ndarray
    states: np.ndarray

    @property
    def turning_point(self):
        return self.states[len(self.states) // 2]


def _rescale_to_energy(system, q, energy):
    """Scale q radially so that H(0, sq) = energy; returns the scaled q."""
    n = system.n
    q = np.asarray(q, dtype=float)
    if np.linalg.norm(q) < 1e-12:
        raise RadialDegeneracy("cannot rescale a zero q-guess onto the level")

    def level(s):
        return system.value(np.concatenate([np.zeros(n), s * q])) - energy

    s = 1.0
    for _ in range(60):
        f = level(s)
        if abs(f) < 1e-13 * (1.0 + abs(energy)):
            return s * q
        zq = np.concatenate([np.zeros(n), s * q])
        slope = float(np.dot(np.asarray(system.gradient(zq))[n:], q))
        if abs(slope) < 1e-14:
            break
        step = f / slope
        s_new = s - step
        if s_new <= 0:
            s_new = 0.5 * s
        s = s_new
    # Newton stalled; bracket on a geometric grid as a fallback.
    grid = np.geomspace(1e-3, 1e3, 121)
    vals = np.array([level(s) for s in grid])
    sign_flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_flips.size == 0:
        raise RadialDegeneracy("no radial rescaling reaches the energy level")
    lo, hi = grid[sign_flips[0]], grid[sign_flips[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if level(lo) * level(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) * q


def find_brake_orbit(system, energy, q_guess, period_guess, config: Config = DEFAULT,
                     steps=1024, tol=1e-10, symmetry_tol=1e-8):
    """Shoot for a brake orbit: start at (0, q) on the energy level and
    demand p(T/2) = 0.

    The energy constraint is enforced by rescaling q radially onto the
    level after every update, so Gauss-Newton only sees the n momentum
    equations in the n+1 unknowns (q, T).  Raises SymmetryViolated for a
    non brake symmetric field, NoConvergence when the residual stalls,
    LeftEnergySurface when trajectories escape.
    """
    sym = check_field_symmetry(system)
    if sym > symmetry_tol:
        raise SymmetryViolated(
            f"field is not brake symmetric (residual {sym:.3e})"
        )
    n = system.n
    q0 = np.asarray(q_guess, dtype=float)
    if q0.shape != (n,) or float(period_guess) <= 0:
        raise ValidationError("need an n-vector q_guess and a positive period")
    x = np.concatenate([_rescale_to_energy(system, q0, energy),
                        [float(period_guess)]])

    def residual(xv):
        q, period = xv[:n], xv[n]
        if period <= 1e-8:
            raise LeftEnergySurface("period collapsed to zero while shooting")
        z0 = np.concatenate([np.zeros(n), q])
        states = _rk4_state(system, z0, (0.0, 0.5 * period), steps)
        return states[-1][:n]

    def renormalized(xv):
        return np.concatenate([_rescale_to_energy(system, xv[:n], energy),
                               [xv[n]]])

    r = residual(x)
    scale = max(1.0, float(np.linalg.norm(x[:n])))
    converged = False
    for _ in range(config.shooting_max_iter):
        if np.max(np.abs(r)) < tol * scale:
            converged = True
            break
        jac = np.empty((n, n + 1))
        for j in range(n + 1):
            e = np.zeros(n + 1)
            e[j] = 1e-6 * (1.0 + abs(x[j]))
            jac[:, j] = (residual(renormalized(x + e)) - r) / e[j]
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam, best = 1.0, None
        for _ in range(8):
            try:
                cand_x = renormalized(x + lam * step)
                cand_r = residual(cand_x)
            except (LeftEnergySurface, RadialDegeneracy):
                lam *= 0.5
                continue
            if np.linalg.norm(cand_r) < np.linalg.norm(r) or lam < 1e-2:
                best = (cand_x, cand_r)
                break
            lam *= 0.5
        if best is None:
            raise NoConvergence("shooting step failed to reduce the residual")
        x, r = best
    if not converged and np.max(np.abs(r)) >= tol * scale:
        raise NoConvergence(
            f"no brake orbit after {config.shooting_max_iter} iterations "
            f"(residual {np.max(np.abs(r)):.3e})"
        )

    q, period = x[:n], x[n]
    z0 = np.concatenate([np.zeros(n), q])
    grad_q = np.asarray(system.gradient(z0), dtype=float)[n:]
    if np.linalg.norm(grad_q) < 1e-10 * (1.0 + np.linalg.norm(z0)):
        raise DegenerateOrbit(
            "flow is tangent to the brake set at the start point"
        )
    times, states = integrate_orbit(system, z0, (0.0, period), config=config)
    gap = np.linalg.norm(states[-1] - z0)
    if gap > 1e-6 * (1.0 + np.linalg.norm(z0)):
        raise NoConvergence(f"orbit does not close up (gap {gap:.3e})")
    half = len(states) // 2
    turn = states[half][:n]
    if np.max(np.abs(turn)) > 1e-8 * (1.0 + np.linalg.norm(states[half])):
        raise NoConvergence(
            f"turning point misses the brake set by {np.max(np.abs(turn)):.3e}"
        )
    n0 = brake_involution(n)
    sym_gap = max(
        float(np.max(np.abs(states[len(states) - 1 - k] - n0 @ states[k])))
        for k in range(0, half + 1, max(1, half // 32))
    )
    if sym_gap > 1e-7 * (1.0 + np.linalg.norm(z0)):
        raise SymmetryViolated(
            f"orbit breaks x(-t) = N0 x(t) by {sym_gap:.3e}"
        )
    return BrakeOrbit(system, float(energy), float(period), z0, times, states)


def linearized_path(orbit: BrakeOrbit, steps=None, config: Config = DEFAULT):
    """Fundamental solution of xi' = J0 H''(z(t)) xi along the orbit.

    State and frame are integrated jointly with the same RK4 grid; the
    frame is reprojected to the symplectic group after each step.
    """
    system = orbit.system
    n = system.n
    steps = config.ode_steps if steps is None else int(steps)
    if steps % 2:
        steps += 1
    j0 = system._j0
    h = orbit.period / steps

    def rhs(z, m):
        return system.field(z), j0 @ system.hessian(z) @ m

    z = orbit.start.copy()
    m = np.eye(2 * n)
    times = np.linspace(0.0, orbit.period, steps + 1)
    frames = np.empty((steps + 1, 2 * n, 2 * n))
    frames[0] = m
    for k in range(steps):
        kz1, km1 = rhs(z, m)
        kz2, km2 = rhs(z + 0.5 * h * kz1, m + 0.5 * h * km1)
        kz3, km3 = rhs(z + 0.5 * h * kz2, m + 0.5 * h * km2)
        kz4, km4 = rhs(z + h * kz3, m + h * km3)
        z = z + (h / 6.0) * (kz1 + 2 * kz2 + 2 * kz3 + kz4)
        m = m + (h / 6.0) * (km1 + 2 * km2 + 2 * km3 + km4)
        m = project_symplectic(m, j0)
        frames[k + 1] = m
    return SymplecticPath(times, frames, based=True, config=config)


def reeb_factor(system, z, tol=1e-10):
    """Reparametrization factor from Hamiltonian to Reeb flow on a
    star-shaped level: 1 / (z . grad H / 2)."""
    z = np.asarray(z, dtype=float)
    g = np.asarray(system.gradient(z), dtype=float)
    radial = 0.5 * float(np.dot(z, g))
    scale = 1.0 + float(np.linalg.norm(z) * np.linalg.norm(g))
    if abs(radial) < tol * scale:
        raise RadialDegeneracy(
            "level set is not transverse to the radial field at this point"
        )
    return 1.0 / radial
