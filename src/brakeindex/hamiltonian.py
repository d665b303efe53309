"""Hamiltonian systems, brake orbits, and their linearized flows.

States are z = (p, q) in R^2n and the flow is z' = J0 grad H(z).  A
system is brake symmetric when H(-p, q) = H(p, q); its brake orbits
start and turn around on the momentum zero section {p = 0}.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULT, Config
from .core import SymplecticPath, _magnus_flow, brake_involution, standard_symplectic
from .errors import (
    DegenerateOrbit,
    EnergyDrift,
    LeftEnergySurface,
    NoConvergence,
    RadialDegeneracy,
    SymmetryViolated,
    ValidationError,
)

# field symmetry residual accepted by find_brake_orbit
_SYMMETRY_TOL = 1e-8
# smallest z . grad H / 2, relative to |z| |grad H|, accepted by reeb_factor
_RADIAL_TOL = 1e-10


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
        # gradients / hessians over stacked (m, 2n) points, when the
        # builder has them; otherwise they stack the pointwise callables
        self._gradients = None
        self._hessians = None
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

    def fields(self, zs):
        """``field`` at every row of the (m, 2n) array ``zs``, stacked."""
        zs = np.asarray(zs, dtype=float)
        if self._gradients is None:
            grads = np.stack([np.asarray(self.gradient(z), dtype=float) for z in zs])
        else:
            grads = self._gradients(zs)
        return (self._j0 @ grads[:, :, None])[:, :, 0]

    def hessians(self, zs):
        """``hessian`` at every row of the (m, 2n) array ``zs``, stacked."""
        zs = np.asarray(zs, dtype=float)
        if self._hessians is None:
            return np.stack([self.hessian(z) for z in zs])
        return self._hessians(zs)


def _with_batches(system, gradients, hessians):
    system._gradients = gradients
    system._hessians = hessians
    return system


def harmonic_system(n=1):
    """H = |z|^2 / 2, all orbits circles of period 2 pi."""
    system = HamiltonianSystem(
        n,
        value=lambda z: 0.5 * float(np.dot(z, z)),
        gradient=lambda z: np.asarray(z, dtype=float).copy(),
        hessian=lambda z: np.eye(2 * n),
        name="harmonic",
        validate=False,
    )
    return _with_batches(system, np.copy,
                         lambda zs: np.repeat(np.eye(2 * n)[None], len(zs), axis=0))


def anisotropic_system(weights):
    """H = |p|^2 / 2 + sum w_j q_j^2 / 2 with positive weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or np.any(w <= 0):
        raise ValidationError("weights must be a 1d positive array")
    n = w.size
    quad = np.concatenate([np.ones(n), w])

    system = HamiltonianSystem(
        n,
        value=lambda z: 0.5 * float(np.dot(quad * z, z)),
        gradient=lambda z: quad * np.asarray(z, dtype=float),
        hessian=lambda z: np.diag(quad),
        name="anisotropic",
        validate=False,
    )
    return _with_batches(system, lambda zs: quad * zs,
                         lambda zs: np.repeat(np.diag(quad)[None], len(zs), axis=0))


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

    # derivative tables, built once: term t of the gradient adds
    # grad_coeff[t] * prod(z ** grad_pow[t]) to entry grad_idx[t], term t of
    # the Hessian hess_coeff[t] * prod(z ** hess_pow[t]) to entry
    # (hess_rows[t], hess_cols[t])
    grad_idx, grad_coeff, grad_pow = [], [], []
    hess_rows, hess_cols, hess_coeff, hess_pow = [], [], [], []
    for c, e in parsed:
        for i in np.nonzero(e)[0]:
            d = e.copy()
            d[i] -= 1
            grad_idx.append(i)
            grad_coeff.append(c * e[i])
            grad_pow.append(d)
            for j in np.nonzero(d)[0]:
                dd = d.copy()
                dd[j] -= 1
                hess_rows.append(i)
                hess_cols.append(j)
                hess_coeff.append(c * e[i] * d[j])
                hess_pow.append(dd)
    grad_idx = np.array(grad_idx, dtype=int)
    grad_coeff = np.array(grad_coeff, dtype=float)
    grad_pow = np.array(grad_pow, dtype=int).reshape(-1, 2 * n)
    hess_rows = np.array(hess_rows, dtype=int)
    hess_cols = np.array(hess_cols, dtype=int)
    hess_coeff = np.array(hess_coeff, dtype=float)
    hess_pow = np.array(hess_pow, dtype=int).reshape(-1, 2 * n)

    def monomials(zs, coeff, powers):
        """coeff[t] * prod(z ** powers[t]) for every row z of zs: (m, T)."""
        return coeff * np.prod(zs[:, None, :] ** powers, axis=2)

    def gradients(zs):
        g = np.zeros((len(zs), 2 * n))
        # np.add.at adds the terms of one entry in term order
        np.add.at(g, (slice(None), grad_idx), monomials(zs, grad_coeff, grad_pow))
        return g

    def gradient(z):
        # np.bincount adds in term order too, so this is a row of gradients
        z = np.asarray(z, dtype=float)
        return np.bincount(grad_idx, weights=grad_coeff * np.prod(z ** grad_pow, axis=1),
                           minlength=2 * n)

    def hessians(zs):
        h = np.zeros((len(zs), 2 * n, 2 * n))
        np.add.at(h, (slice(None), hess_rows, hess_cols),
                  monomials(zs, hess_coeff, hess_pow))
        return 0.5 * (h + h.transpose(0, 2, 1))

    system = HamiltonianSystem(
        n, value, gradient,
        lambda z: hessians(np.asarray(z, dtype=float)[None])[0],
        name=name,
    )
    return _with_batches(system, gradients, hessians)


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


def _escape_check(z):
    """Raise when a state, or any row of stacked states, has |z| > 1e8.

    A nan or inf state fails the same comparison, since its z . z is nan
    or inf.
    """
    sq = z @ z if z.ndim == 1 else np.einsum("ij,ij->i", z, z).max()
    if not float(sq) <= 1e16:
        raise LeftEnergySurface("trajectory escaped to infinity")


def _rk4(rhs, y0, t0, h, steps):
    """Classical RK4 for y' = rhs(t, y): ``steps`` steps of size h from t0.

    Returns the (steps + 1,) + y0.shape samples.  Every new sample goes
    through ``_escape_check``, so an escaping run stops at its step.
    ``h`` may be an array that broadcasts against y, so stacked rows can
    step by their own sizes.
    """
    y = np.asarray(y0, dtype=float)
    out = np.empty((steps + 1,) + y.shape)
    out[0] = y
    for i in range(steps):
        t = t0 + i * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        _escape_check(y)
        out[i + 1] = y
    return out


def _rk4_state(system, z0, t_span, steps):
    t0, t1 = t_span
    return _rk4(lambda t, z: system.field(z), z0, t0, (t1 - t0) / steps, steps)


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
                     steps=1024, tol=1e-10):
    """Shoot for a brake orbit: start at (0, q) on the energy level and
    demand p(T/2) = 0.

    The energy constraint is enforced by rescaling q radially onto the
    level after every update, so Gauss-Newton only sees the n momentum
    equations in the n+1 unknowns (q, T).  Each point is shot together
    with the n+1 rescaled finite-difference points of its Jacobian, as
    the n+2 rows of one run, so a step the line search accepts comes with
    its Jacobian.  When that run cannot be made (a point leaves the level
    or escapes), the point is shot alone and its Jacobian is built at the
    next iteration, so every error is raised where a separate run would
    raise it.  Raises SymmetryViolated for a non brake symmetric field,
    NoConvergence when the residual stalls, LeftEnergySurface when
    trajectories escape.
    """
    sym = check_field_symmetry(system)
    if sym > _SYMMETRY_TOL:
        raise SymmetryViolated(
            f"field is not brake symmetric (residual {sym:.3e})"
        )
    n = system.n
    q0 = np.asarray(q_guess, dtype=float)
    if q0.shape != (n,) or float(period_guess) <= 0:
        raise ValidationError("need an n-vector q_guess and a positive period")
    x = np.concatenate([_rescale_to_energy(system, q0, energy),
                        [float(period_guess)]])

    def residuals(xs):
        # p(T/2) for every row (q, T) of xs, in one stacked run whose rows
        # step by their own h = (T/2) / steps
        periods = xs[:, n]
        if np.any(periods <= 1e-8):
            raise LeftEnergySurface("period collapsed to zero while shooting")
        z0 = np.hstack([np.zeros((len(xs), n)), xs[:, :n]])
        h = (0.5 * periods / steps)[:, None]
        states = _rk4(lambda t, z: system.fields(z), z0, 0.0, h, steps)
        return states[-1][:, :n]

    def renormalized(xv):
        return np.concatenate([_rescale_to_energy(system, xv[:n], energy),
                               [xv[n]]])

    def jacobian_points(xv):
        # row j moves xv[j] alone, then goes back onto the level
        dx = 1e-6 * (1.0 + np.abs(xv))
        return np.array([renormalized(xe) for xe in xv + np.diag(dx)]), dx

    def shoot(xv):
        # the residual at xv and its finite-difference Jacobian, from one
        # run of xv and its n + 1 points; when that run cannot be made, xv
        # alone, raising where it fails, and no Jacobian
        try:
            points, dx = jacobian_points(xv)
            rs = residuals(np.vstack([xv[None], points]))
        except (LeftEnergySurface, RadialDegeneracy):
            return residuals(xv[None])[0], None
        return rs[0], (rs[1:] - rs[0]).T / dx

    r, jac = shoot(x)
    scale = max(1.0, float(np.linalg.norm(x[:n])))
    converged = False
    for _ in range(config.shooting_max_iter):
        if np.max(np.abs(r)) < tol * scale:
            converged = True
            break
        if jac is None:
            points, dx = jacobian_points(x)
            jac = (residuals(points) - r).T / dx
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam, best = 1.0, None
        for _ in range(8):
            try:
                cand_x = renormalized(x + lam * step)
                cand_r, cand_jac = shoot(cand_x)
            except (LeftEnergySurface, RadialDegeneracy):
                lam *= 0.5
                continue
            if np.linalg.norm(cand_r) < np.linalg.norm(r) or lam < 1e-2:
                best = (cand_x, cand_r, cand_jac)
                break
            lam *= 0.5
        if best is None:
            raise NoConvergence("shooting step failed to reduce the residual")
        x, r, jac = best
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

    The state comes from the orbit's own samples when their step count
    matches (the closing run of ``find_brake_orbit``), else from one RK4
    run on the same grid.  The state at each step's midpoint is the
    cubic Hermite fit (z_i + z_{i+1}) / 2 + h/8 (f_i - f_{i+1}) of the
    samples and their fields f; all fields come in one batch and all
    Hessians in another, and the frame takes one exactly symplectic
    fourth-order Magnus step per step.
    """
    system = orbit.system
    steps = config.ode_steps if steps is None else int(steps)
    if steps % 2:
        steps += 1
    h = orbit.period / steps
    if len(orbit.states) == steps + 1:
        states = orbit.states
    else:
        states = _rk4_state(system, orbit.start, (0.0, orbit.period), steps)
    f = system.fields(states)
    mids = (states[:-1] + states[1:]) / 2 + h / 8 * (f[:-1] - f[1:])
    coeff = system._j0 @ system.hessians(np.concatenate([states, mids]))
    frames = _magnus_flow(coeff[:steps], coeff[steps + 1 :], coeff[1 : steps + 1], h)
    times = np.linspace(0.0, orbit.period, steps + 1)
    return SymplecticPath(times, frames, based=True, config=config)


def reeb_factor(system, z):
    """Reparametrization factor from Hamiltonian to Reeb flow on a
    star-shaped level: 1 / (z . grad H / 2)."""
    z = np.asarray(z, dtype=float)
    g = np.asarray(system.gradient(z), dtype=float)
    radial = 0.5 * float(np.dot(z, g))
    scale = 1.0 + float(np.linalg.norm(z) * np.linalg.norm(g))
    if abs(radial) < _RADIAL_TOL * scale:
        raise RadialDegeneracy(
            "level set is not transverse to the radial field at this point"
        )
    return 1.0 / radial
