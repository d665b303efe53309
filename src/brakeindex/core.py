"""Symplectic linear algebra and path machinery.

Conventions used throughout the package:

* ``J0`` is the 2n x 2n block matrix [[0, -I], [I, 0]] and the symplectic
  form is ``omega(u, v) = <J0 u, v>``.
* ``N0 = diag(-I, I)`` is the anti-symplectic brake involution; it
  anticommutes with J0.
* Coordinates are ordered (p_1..p_n, q_1..q_n), so L1 = {0} x R^n is the
  fixed locus of N0 and L2 = R^n x {0} the anti-fixed one.
* Exact half-integers are carried by :class:`HalfInt`; index routines
  never return floats.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg

from .config import DEFAULT, Config
from .errors import PhaseJumpTooLarge, SymplecticityLost, ValidationError


@functools.total_ordering
class HalfInt:
    """Exact element of (1/2)Z stored as its doubled integer.

    ``HalfInt(k)`` is the number k/2, so ``HalfInt(3)`` is 3/2 and
    ``HalfInt.from_int(2)`` is 2.  Arithmetic stays in (1/2)Z; products
    are only defined against plain integers.
    """

    __slots__ = ("doubled",)

    def __init__(self, doubled):
        if not isinstance(doubled, (int, np.integer)):
            raise TypeError("HalfInt takes the doubled integer value")
        object.__setattr__(self, "doubled", int(doubled))

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    @classmethod
    def from_int(cls, k):
        return cls(2 * int(k))

    @classmethod
    def coerce(cls, value):
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, (int, np.integer)):
            return cls.from_int(value)
        raise TypeError(f"cannot coerce {value!r} to HalfInt")

    @property
    def is_integer(self):
        return self.doubled % 2 == 0

    def __add__(self, other):
        if isinstance(other, (int, np.integer)):
            other = HalfInt.from_int(other)
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.doubled + other.doubled)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, np.integer)):
            other = HalfInt.from_int(other)
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.doubled - other.doubled)

    def __rsub__(self, other):
        return HalfInt.coerce(other) - self

    def __neg__(self):
        return HalfInt(-self.doubled)

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return HalfInt(self.doubled * int(other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.doubled == 2 * int(other)
        if isinstance(other, HalfInt):
            return self.doubled == other.doubled
        return NotImplemented

    def __lt__(self, other):
        other = HalfInt.coerce(other)
        return self.doubled < other.doubled

    def __hash__(self):
        return hash(("HalfInt", self.doubled))

    def __float__(self):
        return self.doubled / 2.0

    def __int__(self):
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.doubled // 2

    def __repr__(self):
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def standard_symplectic(n):
    """J0 = [[0, -I_n], [I_n, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def brake_involution(n):
    """N0 = diag(-I_n, I_n); anti-symplectic, anticommutes with J0."""
    return np.diag(np.concatenate([-np.ones(n), np.ones(n)]))


def product_form(n):
    """Complex structure of (-omega) (+) omega on R^{4n}: diag(-J0, J0)."""
    j = standard_symplectic(n)
    out = np.zeros((4 * n, 4 * n))
    out[: 2 * n, : 2 * n] = -j
    out[2 * n :, 2 * n :] = j
    return out


def symplectic_residual(m, j=None):
    """sup-norm of M^T J M - J."""
    m = np.asarray(m, dtype=float)
    if j is None:
        j = standard_symplectic(m.shape[0] // 2)
    return float(np.max(np.abs(m.T @ j @ m - j)))


def project_symplectic(m, j=None):
    """One Newton step of the polar-type retraction onto Sp(2n).

    With E = J0^{-1} M^T J0 M the exact correction is M E^{-1/2}; for E
    near the identity one Newton step gives E^{-1/2} ~ (3I - E)/2.  The
    factor order matters: E = M^T J0 M J0^{-1} looks equivalent at the
    fixed point but doubles the defect component that commutes with J0
    instead of contracting it.
    """
    m = np.asarray(m, dtype=float)
    if j is None:
        j = standard_symplectic(m.shape[0] // 2)
    e = -j @ m.T @ j @ m  # J0^{-1} = -J0
    return m @ (3.0 * np.eye(m.shape[0]) - e) / 2.0


@dataclasses.dataclass(frozen=True)
class Lagrangian:
    """A Lagrangian subspace given by an orthonormal frame.

    ``frame`` has shape (2N, N) with orthonormal columns; ``j`` is the
    complex structure of the ambient form <J u, v> (standard J0 when not
    given, diag(-J0, J0) for graphs in doubled space).
    """

    frame: np.ndarray
    j: np.ndarray | None = None

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] != 2 * frame.shape[1]:
            raise ValidationError(f"frame must be (2N, N), got {frame.shape}")
        # re-orthonormalize; QR keeps the column span
        q, r = np.linalg.qr(frame)
        if np.min(np.abs(np.diag(r))) < 1e-12:
            raise ValidationError("frame columns are rank-deficient")
        object.__setattr__(self, "frame", q)
        j = self.j
        if j is None:
            j = standard_symplectic(frame.shape[1])
        j = np.asarray(j, dtype=float)
        object.__setattr__(self, "j", j)
        iso = np.max(np.abs(q.T @ j @ q))
        if iso > 1e-9:
            raise ValidationError(f"frame is not isotropic (residual {iso:.2e})")

    @property
    def dim(self):
        return self.frame.shape[1]


def lagrangian_l1(n):
    """L1 = {0} x R^n, the q-axis plane (fixed by N0)."""
    f = np.zeros((2 * n, n))
    f[n:, :] = np.eye(n)
    return Lagrangian(f)


def lagrangian_l2(n):
    """L2 = R^n x {0}, the p-axis plane (anti-fixed by N0)."""
    f = np.zeros((2 * n, n))
    f[:n, :] = np.eye(n)
    return Lagrangian(f)


def lagrangian_diagonal(n):
    """W = {(v, v)} in R^{4n}, Lagrangian for the product form."""
    f = np.vstack([np.eye(2 * n), np.eye(2 * n)]) / math.sqrt(2.0)
    return Lagrangian(f, j=product_form(n))


def lagrangian_graph(m):
    """Graph {(v, M v)} in R^{4n}, Lagrangian for the product form iff M is symplectic."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0] // 2
    f = np.vstack([np.eye(2 * n), m])
    return Lagrangian(f, j=product_form(n))


def _interpolate(times, values, t):
    """Value at t of a path sampled in a matrix group.

    Returns the sample at a node; inside a cell it follows the geodesic
    values[i] exp(frac log(values[i]^{-1} values[i + 1])).
    """
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(max(i, 0), len(times) - 2)
    t0, t1 = times[i], times[i + 1]
    if t <= t0:
        return values[i].copy()
    if t >= t1:
        return values[i + 1].copy()
    step = np.linalg.solve(values[i], values[i + 1])
    frac = (t - t0) / (t1 - t0)
    log = scipy.linalg.logm(step)
    return np.real(values[i] @ scipy.linalg.expm(frac * log))


class SymplecticPath:
    """A sampled path in Sp(2n) with an optional exact evaluator.

    Samples live at ``times`` (strictly increasing); ``values`` has shape
    (m, 2n, 2n).  ``evaluator``, when given, must return the exact matrix
    at any t in the interval and is preferred over interpolation.  A
    based path starts at the identity exactly.  The samples are validated
    under ``config.tol_symplectic``; every path derived from this one is
    validated under the same config.
    """

    def __init__(self, times, values, based=False, evaluator=None,
                 config: Config = DEFAULT):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValidationError("need at least two sample times")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("sample times must increase strictly")
        if values.shape[0] != len(times) or values.shape[1] != values.shape[2]:
            raise ValidationError("values must be (len(times), 2n, 2n)")
        if values.shape[1] % 2 != 0:
            raise ValidationError("matrices must be even-dimensional")
        tol = config.tol_symplectic
        n = values.shape[1] // 2
        j = standard_symplectic(n)
        res = np.max(np.abs(np.einsum("mji,jk,mkl->mil", values, j, values) - j))
        if res > tol:
            raise SymplecticityLost(f"sample residual {res:.2e} exceeds {tol:.1e}")
        if based and np.max(np.abs(values[0] - np.eye(2 * n))) > 0:
            raise ValidationError("based path must start exactly at the identity")
        self.n = n
        self.times = times
        self.values = values
        self.based = based
        self.config = config
        self._evaluator = evaluator

    @property
    def a(self):
        return float(self.times[0])

    @property
    def b(self):
        return float(self.times[-1])

    @property
    def tau(self):
        return self.b - self.a

    def value_at(self, t):
        t = float(t)
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise ValidationError(f"t={t} outside [{self.a}, {self.b}]")
        t = min(max(t, self.times[0]), self.times[-1])
        if self._evaluator is not None:
            return np.asarray(self._evaluator(t), dtype=float)
        return _interpolate(self.times, self.values, t)

    def values_at(self, ts):
        """``value_at`` over the 1-d array ``ts``, stacked to (len(ts), 2n, 2n).

        Element for element the same numbers as ``value_at``: the evaluator
        is called per time when there is one; otherwise a time that is a
        node gives its stored sample and any other time is interpolated.
        """
        ts = np.asarray(ts, dtype=float)
        outside = (ts < self.times[0] - 1e-12) | (ts > self.times[-1] + 1e-12)
        if np.any(outside):
            t = float(ts[np.argmax(outside)])
            raise ValidationError(f"t={t} outside [{self.a}, {self.b}]")
        ts = np.clip(ts, self.times[0], self.times[-1])
        if self._evaluator is not None:
            out = np.empty((len(ts), 2 * self.n, 2 * self.n))
            for k, t in enumerate(ts):
                out[k] = self._evaluator(float(t))
            return out
        node = np.minimum(np.searchsorted(self.times, ts), len(self.times) - 1)
        out = self.values[node]
        for k in np.flatnonzero(self.times[node] != ts):
            out[k] = _interpolate(self.times, self.values, float(ts[k]))
        return out

    def end_value(self):
        return self.values[-1].copy()

    def restricted(self, a, b):
        """Sub-path on [a, b] (endpoints inserted from the evaluator if needed)."""
        if not (self.a - 1e-12 <= a < b <= self.b + 1e-12):
            raise ValidationError("restriction interval outside the path domain")
        mask = (self.times > a + 1e-14) & (self.times < b - 1e-14)
        times = np.concatenate([[a], self.times[mask], [b]])
        values = self.values_at(times)
        based = self.based and abs(a - self.a) < 1e-15
        if based:
            values[0] = np.eye(2 * self.n)
        return SymplecticPath(times, values, based=based,
                              evaluator=self._evaluator, config=self.config)

    def reversed(self):
        """Time-reversed path on the same interval."""
        a, b = self.a, self.b
        times = self.times
        values = self.values[::-1].copy()
        ev = None
        if self._evaluator is not None:
            base = self._evaluator
            ev = lambda t: base(a + b - t)
        return SymplecticPath(times, values, based=False, evaluator=ev,
                              config=self.config)


def rotation_path(omega, n=1, interval=(0.0, 1.0), samples=257,
                  config: Config = DEFAULT):
    """Path exp(J0 omega t): every complex coordinate rotates at rate omega."""
    a, b = float(interval[0]), float(interval[1])
    times = np.linspace(a, b, samples)

    def at(t):
        c, s = math.cos(omega * t), math.sin(omega * t)
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = c * np.eye(n)
        m[:n, n:] = -s * np.eye(n)
        m[n:, :n] = s * np.eye(n)
        m[n:, n:] = c * np.eye(n)
        return m

    values = np.stack([at(t) for t in times])
    based = a == 0.0
    if based:
        values[0] = np.eye(2 * n)
    return SymplecticPath(times, values, based=based, evaluator=at, config=config)


def hyperbolic_path(lam, interval=(0.0, 1.0), samples=257,
                    config: Config = DEFAULT):
    """Based Sp(2) path ending at diag(lam, 1/lam).

    Positive lam uses the plain stretching diag(lam^t, lam^-t); negative
    lam composes the stretch with the half rotation, ending at
    diag(lam, 1/lam) with lam < 0.
    """
    if lam == 0 or abs(lam) == 1:
        raise ValidationError("hyperbolic eigenvalue must satisfy |lam| not in {0, 1}")
    a, b = float(interval[0]), float(interval[1])
    mag = abs(lam)
    times = np.linspace(a, b, samples)

    def at(t):
        d = np.diag([mag ** t, mag ** (-t)])
        if lam > 0:
            return d
        th = math.pi * t
        r = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        return r @ d

    values = np.stack([at(t) for t in times])
    based = a == 0.0
    if based:
        values[0] = np.eye(2)
    return SymplecticPath(times, values, based=based, evaluator=at, config=config)


def _rk4(rhs, y0, t0, h, steps, correct=None):
    """Classical RK4 for y' = rhs(t, y): ``steps`` steps of size h from t0.

    Returns the (steps + 1,) + y0.shape samples.  Each new sample y at
    time t goes through ``correct(t, y)``, which returns it (possibly
    projected) or raises, so a failure stops the loop at its step.
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
        if correct is not None:
            y = correct(t0 + (i + 1) * h, y)
        out[i + 1] = y
    return out


def fundamental_solution(b_of_t, interval=(0.0, 1.0), steps=None,
                         config: Config = DEFAULT):
    """Solve gamma' = J0 B(t) gamma, gamma(a) = I, by classical RK4.

    Fixed step count (config ode.steps by default) with a symplectic
    re-projection after every step.  ``b_of_t`` returns the symmetric
    2n x 2n coefficient at time t.  Each step must stay within
    tol.symplectic; the returned path is validated, and remembers, ten
    times that.
    """
    a, b = float(interval[0]), float(interval[1])
    steps = config.ode_steps if steps is None else int(steps)
    tol = config.tol_symplectic
    n = np.asarray(b_of_t(a), dtype=float).shape[0] // 2
    j = standard_symplectic(n)

    def rhs(t, g):
        return j @ np.asarray(b_of_t(t), dtype=float) @ g

    def projected(t, g):
        return project_symplectic(g, j)

    def checked(t, g):
        g = project_symplectic(g, j)
        res = symplectic_residual(g, j)
        if res > tol:
            raise SymplecticityLost(f"residual {res:.2e} at t={t:.6g} exceeds {tol:.1e}")
        return g

    h = (b - a) / steps
    times = a + np.arange(steps + 1) * h
    values = _rk4(rhs, np.eye(2 * n), a, h, steps, correct=checked)

    def at(t):
        t = float(t)
        i = int(np.searchsorted(times, t, side="right") - 1)
        i = min(max(i, 0), steps)
        t0 = times[i]
        if abs(t - t0) < 1e-15:
            return values[i].copy()
        if i == steps:
            return values[-1].copy()
        return _rk4(rhs, values[i], t0, t - t0, 1, correct=projected)[1]

    return SymplecticPath(times, values, based=True, evaluator=at,
                          config=dataclasses.replace(config, tol_symplectic=10 * tol))


class UnitaryLoop:
    """A loop in U(n) embedded in Sp(2n) as [[X, -Y], [Y, X]].

    ``values`` are the embedded real matrices sampled over one period
    [0, tau]; the loop must close (first ~ last sample).
    """

    def __init__(self, times, values, evaluator=None):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times[0] != 0.0:
            raise ValidationError("loop samples must start at t = 0")
        n = values.shape[1] // 2
        gap = np.max(np.abs(values[0] - values[-1]))
        if gap > 1e-9:
            raise ValidationError(f"loop does not close (gap {gap:.2e})")
        for m in (values[0], values[len(values) // 2]):
            if symplectic_residual(m) > 1e-8 or np.max(np.abs(m.T @ m - np.eye(2 * n))) > 1e-8:
                raise ValidationError("samples must be orthogonal-symplectic")
        self.n = n
        self.tau = float(times[-1])
        self.times = times
        self.values = values
        self._evaluator = evaluator

    def value_at(self, t):
        t = float(t) % self.tau if self.tau > 0 else float(t)
        if self._evaluator is not None:
            return np.asarray(self._evaluator(t), dtype=float)
        return _interpolate(self.times, self.values, t)

    def complex_at(self, t):
        m = self.value_at(t)
        n = self.n
        return m[:n, :n] + 1j * m[n:, :n]


def diagonal_unitary_loop(degrees, tau=1.0, samples=257):
    """Loop diag(e^{2 pi i k_j t / tau}); brake-symmetric for any integer degrees."""
    if isinstance(degrees, (int, np.integer)):
        degrees = [int(degrees)]
    degrees = [int(k) for k in degrees]
    n = len(degrees)
    times = np.linspace(0.0, tau, samples)

    def at(t):
        x = np.diag([math.cos(2 * math.pi * k * t / tau) for k in degrees])
        y = np.diag([math.sin(2 * math.pi * k * t / tau) for k in degrees])
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = x
        m[:n, n:] = -y
        m[n:, :n] = y
        m[n:, n:] = x
        return m

    values = np.stack([at(t) for t in times])
    values[0] = np.eye(2 * n)
    values[-1] = np.eye(2 * n)
    return UnitaryLoop(times, values, evaluator=at)


def loop_degree(loop, samples=None):
    """Winding number of det: unwrap the determinant phase over one period.

    Raises PhaseJumpTooLarge when consecutive phase samples differ by more
    than pi/2 (undersampled loop).
    """
    if samples is None:
        ts = loop.times
        dets = np.array([np.linalg.det(loop.complex_at(t)) for t in ts])
    else:
        ts = np.linspace(0.0, loop.tau, samples)
        dets = np.array([np.linalg.det(loop.complex_at(t)) for t in ts])
    if np.min(np.abs(dets)) < 1e-12:
        raise ValidationError("determinant vanished; samples are not unitary")
    phases = np.angle(dets)
    total = 0.0
    for k in range(1, len(phases)):
        jump = phases[k] - phases[k - 1]
        jump = (jump + math.pi) % (2 * math.pi) - math.pi
        if abs(jump) > math.pi / 2:
            raise PhaseJumpTooLarge(
                f"phase jump {jump:.3f} rad between samples {k - 1} and {k}"
            )
        total += jump
    winding = total / (2 * math.pi)
    deg = round(winding)
    if abs(winding - deg) > 1e-6:
        raise ValidationError(f"winding {winding} is not an integer")
    return int(deg)


def check_brake_symmetry(obj, kind=None, samples=None):
    """Sup-norm residual of the brake relation for the given object.

    * symplectic path gamma on [0, tau]: ||gamma(tau - t) gamma(tau)^{-1}
      - N0 gamma(t) N0|| (the periodic extension of gamma(-t) = N0 gamma(t) N0);
    * unitary loop phi: ||phi(-t) N0 - N0 phi(t)||;
    * symmetric coefficient loop S (callable with attribute tau or kind
      "loop"): ||N0 S(-t) N0 - S(t)||.
    """
    if kind is None:
        if isinstance(obj, SymplecticPath):
            kind = "path"
        elif isinstance(obj, UnitaryLoop):
            kind = "unitary"
        else:
            kind = "coefficient"
    if kind == "path":
        n0 = brake_involution(obj.n)
        ts = obj.times if samples is None else np.linspace(obj.a, obj.b, samples)
        mono_inv = np.linalg.inv(obj.end_value())
        if np.max(np.abs(ts + ts[::-1] - (obj.a + obj.b))) <= 1e-12 * obj.tau:
            # the grid is symmetric, so node k reflects onto node m-1-k
            vals = obj.values_at(ts)
            return float(np.max(np.abs(vals[::-1] @ mono_inv - n0 @ vals @ n0)))
        res = 0.0
        for t in ts:
            lhs = obj.value_at(obj.b - (t - obj.a)) @ mono_inv
            rhs = n0 @ obj.value_at(t) @ n0
            res = max(res, float(np.max(np.abs(lhs - rhs))))
        return res
    if kind == "unitary":
        n0 = brake_involution(obj.n)
        ts = obj.times if samples is None else np.linspace(0.0, obj.tau, samples)
        res = 0.0
        for t in ts:
            lhs = obj.value_at(-t) @ n0
            rhs = n0 @ obj.value_at(t)
            res = max(res, float(np.max(np.abs(lhs - rhs))))
        return res
    # coefficient loop: obj(t) symmetric matrices, periodic with obj.tau
    tau = getattr(obj, "tau", 1.0)
    fn = obj
    probe = np.asarray(fn(0.0), dtype=float)
    n0 = brake_involution(probe.shape[0] // 2)
    count = 129 if samples is None else samples
    res = 0.0
    for t in np.linspace(0.0, tau, count):
        lhs = n0 @ np.asarray(fn((-t) % tau), dtype=float) @ n0
        rhs = np.asarray(fn(t), dtype=float)
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res


def pointwise_product(left, right):
    """Pointwise product path t -> left(t) @ right(t) on right's interval.

    ``left`` may be a UnitaryLoop (period = right's length) or another
    SymplecticPath on the same interval.
    """
    times = right.times
    if isinstance(left, UnitaryLoop):
        if abs(left.tau - right.tau) > 1e-12:
            raise ValidationError("loop period must match the path interval")
        lval = lambda t: left.value_at(t - right.a)
        lvals = np.stack([lval(t) for t in times])
        left_based = np.max(np.abs(left.values[0] - np.eye(2 * left.n))) == 0.0
    else:
        if abs(left.a - right.a) > 1e-12 or abs(left.b - right.b) > 1e-12:
            raise ValidationError("paths must share an interval")
        lval = left.value_at
        lvals = left.values_at(times)
        left_based = left.based
    values = lvals @ right.values_at(times)
    based = right.based and left_based
    if based:
        values[0] = np.eye(values.shape[1])
    rev = right._evaluator
    ev = None
    if rev is not None:
        ev = lambda t: lval(t) @ rev(t)
    return SymplecticPath(times, values, based=based, evaluator=ev,
                          config=right.config)
