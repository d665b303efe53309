"""Maslov-type index computations via crossing forms.

The pair index follows the half-weight endpoint convention: each interior
crossing contributes the full signature of the relative crossing form,
endpoint crossings contribute half.  The relative form at a crossing is
Gamma(second) - Gamma(first), where Gamma(Lambda)(v) = d/dt omega(v, w(t))
for any lift w(t) in Lambda(t) through v; we use the lift w = P(t) v with
P the orthogonal frame projector, whose derivative is gauge-invariant.

The index of a pair is the eigenphase winding of its Souriau map; the
located crossings are its witness, and a list of crossings that does not
sum to the winding raises instead of being reported.

The Conley-Zehnder index is computed from the pair (diagonal, graph) in
the doubled space with endpoint intersections counted in full, which
reproduces the usual normalization (a small positive rotation has index
n) and takes the upper value at degenerate rotation angles.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .config import DEFAULT, Config
from .core import (
    HalfInt,
    Lagrangian,
    SymplecticPath,
    UnitaryLoop,
    check_brake_symmetry,
    lagrangian_diagonal,
    lagrangian_l1,
    lagrangian_l2,
    pointwise_product,
    product_form,
    standard_symplectic,
)
from .errors import (
    CrossingUnresolved,
    IrregularCrossing,
    SymmetryViolated,
    Undersampled,
    ValidationError,
)

# crossing times are resolved to this fraction of the interval
_TIME_TOL = 1e-10
# a crossing form is regular when every eigenvalue clears this, relative
# to the largest one
_FORM_TOL = 1e-5
# a scan cell narrower than this fraction of the interval is not split
_CELL_FLOOR = 1e-7
# largest brake residual phi(-t) N0 - N0 phi(t) of a loop in the shift law
_SYMMETRY_TOL = 1e-8


class LagrangianPath:
    """A path of Lagrangian frames over a time grid.

    ``frame_fn(t)`` returns an orthonormal (2N, N) frame of the subspace
    at time t; ``j`` is the ambient complex structure defining the form
    <J u, v>.  ``frames(ts)`` stacks the frames at many times; the
    constructors below evaluate it in one batch, and a path built from a
    plain ``frame_fn`` stacks its per-time frames.
    """

    def __init__(self, frame_fn, times, j):
        self.times = np.asarray(times, dtype=float)
        self._frame_fn = frame_fn
        self.j = np.asarray(j, dtype=float)
        self._frames_fn = None

    @classmethod
    def _batched(cls, frame_fn, frames_fn, times, j):
        """Path that also evaluates ``frames_fn(ts)`` -> (len(ts), 2N, N) in
        one batch; it must stack exactly what ``frame_fn`` returns."""
        path = cls(frame_fn, times, j)
        path._frames_fn = frames_fn
        return path

    @property
    def a(self):
        return float(self.times[0])

    @property
    def b(self):
        return float(self.times[-1])

    @classmethod
    def constant(cls, lag: Lagrangian, interval, samples=17):
        times = np.linspace(float(interval[0]), float(interval[1]), samples)
        frame = lag.frame.copy()
        return cls._batched(
            lambda t: frame,
            lambda ts: np.broadcast_to(frame, (len(ts),) + frame.shape),
            times, lag.j)

    @classmethod
    def from_symplectic(cls, path: SymplecticPath, lag: Lagrangian):
        """The moving Lagrangian t -> Phi(t) . span(lag)."""
        base = lag.frame

        def frame_fn(t):
            q, _ = np.linalg.qr(path.value_at(t) @ base)
            return q

        def frames_fn(ts):
            q, _ = np.linalg.qr(path.values_at(ts) @ base)
            return q

        return cls._batched(frame_fn, frames_fn, path.times, lag.j)

    @classmethod
    def graph(cls, path: SymplecticPath):
        """t -> graph of Phi(t) inside R^{4n} with the product form."""
        n = path.n
        ident = np.eye(2 * n)

        def frame_fn(t):
            stacked = np.vstack([ident, path.value_at(t)])
            q, _ = np.linalg.qr(stacked)
            return q

        def frames_fn(ts):
            stacked = np.empty((len(ts), 4 * n, 2 * n))
            stacked[:, : 2 * n] = ident
            stacked[:, 2 * n :] = path.values_at(ts)
            q, _ = np.linalg.qr(stacked)
            return q

        return cls._batched(frame_fn, frames_fn, path.times, product_form(n))

    def frame_at(self, t):
        return self._frame_fn(float(t))

    def frames(self, ts):
        """Frames at the 1-d array ``ts``, stacked to (len(ts), 2N, N)."""
        ts = np.asarray(ts, dtype=float)
        if self._frames_fn is not None:
            return self._frames_fn(ts)
        return np.stack([self._frame_fn(float(t)) for t in ts])

    def projector_at(self, t):
        f = self.frame_at(t)
        return f @ f.T

    def reversed(self):
        a, b = self.a, self.b
        fn, batched = self._frame_fn, self._frames_fn
        frames_fn = None if batched is None else (lambda ts: batched(a + b - ts))
        return LagrangianPath._batched(lambda t: fn(a + b - t), frames_fn,
                                       self.times, self.j)

    def restricted(self, a, b):
        keep = self.times[(self.times > a) & (self.times < b)]
        times = np.concatenate([[a], keep, [b]])
        return LagrangianPath._batched(self._frame_fn, self._frames_fn,
                                       times, self.j)


@dataclasses.dataclass(frozen=True)
class Crossing:
    time: float
    dim: int
    signature: int
    regular: bool


@dataclasses.dataclass(frozen=True)
class IndexReport:
    value: HalfInt
    crossings: tuple
    endpoint_nullities: tuple


def _sigma_min(l1, l2, t):
    """Smallest singular value of the stacked frames of l1 and l2 at t."""
    m = np.hstack([l1.frame_at(t), l2.frame_at(t)])
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def _intersection_data(l1, l2, t, rank_tol):
    """Dimension and an orthonormal basis of span(l1) & span(l2) at t."""
    f1 = l1.frame_at(t)
    f2 = l2.frame_at(t)
    m = np.hstack([f1, f2])
    u, s, vt = np.linalg.svd(m)
    dim = int(np.sum(s < rank_tol))
    if dim == 0:
        return 0, None
    null = vt[-dim:, :].T  # columns (c1; c2) with f1 c1 ~ -f2 c2
    k = f1.shape[1]
    vecs = f1 @ null[:k, :]
    q, r = np.linalg.qr(vecs)
    keep = np.abs(np.diag(r)) > 1e-10
    basis = q[:, keep]
    return basis.shape[1], basis


def _crossing_form(l1, l2, t, basis, h, side="center"):
    """Relative crossing form Gamma(l2) - Gamma(l1) on the given basis."""
    j = l1.j
    jv = j @ basis  # columns J v_i

    def g(tt):
        diff = l2.projector_at(tt) - l1.projector_at(tt)
        return jv.T @ diff @ basis

    if side == "center":
        q = (g(t + h) - g(t - h)) / (2 * h)
    elif side == "right":
        q = (-3 * g(t) + 4 * g(t + h) - g(t + 2 * h)) / (2 * h)
    else:
        q = (3 * g(t) - 4 * g(t - h) + g(t - 2 * h)) / (2 * h)
    return (q + q.T) / 2.0


def _form_counts(q):
    eig = np.linalg.eigvalsh(q)
    scale = max(1.0, float(np.max(np.abs(eig))) if eig.size else 1.0)
    regular = bool(np.all(np.abs(eig) > _FORM_TOL * scale))
    pos = int(np.sum(eig > 0))
    neg = int(np.sum(eig < 0))
    return pos - neg, regular


def _refine_dip(sigma_of, tl, tr, span):
    """(t, sigma) at the bottom of a dip of ``sigma_of`` inside (tl, tr)."""
    import scipy.optimize

    res = scipy.optimize.minimize_scalar(
        sigma_of, bounds=(tl, tr), method="bounded",
        options={"xatol": max(_TIME_TOL * span, 1e-14)},
    )
    t_hat = float(res.x)
    s_hat = float(res.fun)
    # At a crossing the dip is a kink |t - t*|, not a smooth minimum,
    # and bounded Brent stalls at its sqrt(eps)*|t| floor, well above
    # rank_tol.  Refine by intersecting secant lines fitted to the two
    # branches; near misses keep a positive floor and stay rejected.
    d = max(2e-7 * max(1.0, abs(t_hat)), 1e-12 * span)
    if 4 * d > tr - tl:
        d = (tr - tl) / 8
    for _ in range(2):
        pts = [t_hat - 2 * d, t_hat - d, t_hat + d, t_hat + 2 * d]
        sl2, sl1, sr1, sr2 = (sigma_of(t) for t in pts)
        ml = (sl1 - sl2) / d
        mr = (sr2 - sr1) / d
        if mr - ml <= 0:
            break
        t_star = (sl1 - sr1 + mr * pts[2] - ml * pts[1]) / (mr - ml)
        if not (tl < t_star < tr):
            break
        s_star = sigma_of(t_star)
        if s_star < s_hat:
            t_hat, s_hat = t_star, s_star
        d /= 8
    return t_hat, s_hat


def _turn(f):
    """Summed principal angles between consecutive frames of the stack f."""
    cos = np.linalg.svd(np.swapaxes(f[:-1], -1, -2) @ f[1:], compute_uv=False)
    return np.sum(np.arccos(np.minimum(cos, 1.0)), axis=-1)


def _winding_doubled(lam1, lam2, nullities):
    """Twice the pair index, counted by eigenphases, and the grid counted on.

    With E the first frame of ``lam1`` and j E its rotation, [E, jE]
    identifies R^{2N} with C^N so that j acts as i, and a frame F becomes
    the unitary Z = E^T F + i (jE)^T F.  The eigenvalues of the Souriau
    map A = V V^T, V = Z1^* Z2, equal 1 exactly on the intersection of
    the two Lagrangians, and the index is the net number of eigenphases
    of A passing through 0: the unwrapped arg det A less the endpoint
    phases taken in [0, 2 pi), where the phases of the endpoint
    intersections (``nullities``) count as pi, which gives them half
    weight (Robbin-Salamon 1993; Arnold 1967 for the map).

    The union grid of both paths gets the midpoint of each cell over
    which arg det A steps by more than pi/2, or may turn by pi unseen:
    the sampled step is known modulo 2 pi, the true one is at most twice
    the principal angles between the end frames, summed over both paths.
    A cell narrower than ``_CELL_FLOOR`` of the interval that still needs
    a midpoint raises Undersampled.  A count that is not a half-integer
    raises CrossingUnresolved (the endpoint rank decisions disagree with
    the endpoint eigenphases).  Returns the count, the grid and the
    smallest singular value of the stacked frames at each node.
    """
    grid = np.union1d(lam1.times, lam2.times)
    f1, f2 = lam1.frames(grid), lam2.frames(grid)
    e = f1[0]
    je = lam1.j @ e

    def unitary(f):
        z = np.empty(f.shape[:-2] + (e.shape[1],) * 2, dtype=complex)
        z.real = e.T @ f
        z.imag = je.T @ f
        return z

    def arg_det(g1, g2):
        return 2.0 * np.angle(np.conj(np.linalg.det(unitary(g1)))
                              * np.linalg.det(unitary(g2)))

    phase = arg_det(f1, f2)
    while True:
        steps = np.angle(np.exp(1j * np.diff(phase)))
        bound = 2 * (_turn(f1) + _turn(f2))
        wide = np.flatnonzero((np.abs(steps) > math.pi / 2) | (bound >= math.pi))
        if wide.size == 0:
            break
        if np.min(np.diff(grid)[wide]) < _CELL_FLOOR * (grid[-1] - grid[0]):
            k = wide[np.argmax(np.abs(steps[wide]))]
            raise Undersampled(
                f"arg det of the Souriau map still steps by {abs(steps[k]):.3g} rad "
                f"on [{grid[k]:.9g}, {grid[k + 1]:.9g}]; refine the sampling")
        mids = 0.5 * (grid[wide] + grid[wide + 1])
        g1, g2 = lam1.frames(mids), lam2.frames(mids)
        grid = np.insert(grid, wide + 1, mids)
        f1 = np.insert(f1, wide + 1, g1, axis=0)
        f2 = np.insert(f2, wide + 1, g2, axis=0)
        phase = np.insert(phase, wide + 1, arg_det(g1, g2))

    def endpoint_phases(k, dim):
        v = unitary(f1[k]).conj().T @ unitary(f2[k])
        theta = np.angle(np.linalg.eigvals(v @ v.T))
        r = np.mod(theta, 2 * math.pi)
        r[np.argsort(np.abs(theta))[:dim]] = math.pi
        return float(np.sum(r))

    count = (float(np.sum(steps)) - endpoint_phases(-1, nullities[1])
             + endpoint_phases(0, nullities[0])) / math.pi
    if abs(count - round(count)) > 0.1:
        raise CrossingUnresolved(
            f"eigenphase winding {count:.3f} (doubled) is not a half-integer "
            f"with endpoint nullities {tuple(nullities)}")
    sig_min = np.linalg.svd(np.concatenate([f1, f2], axis=2),
                            compute_uv=False)[:, -1]
    return int(round(count)), grid, sig_min


def _missing_crossings(lam1, lam2, grid, sig_min, known, deficit, crossing,
                       rank_tol):
    """Crossings hidden next to the ``known`` ones, up to ``deficit``.

    Crossings closer together than a grid cell or two share one dip of
    the scan, which shows one of them.  The others are looked for on
    each side of a known crossing, out to where the scanned ``sig_min`` stops
    rising, on points spaced geometrically away from it so that a
    neighbour shows as its own dip at any distance.  A crossing counts
    only when ``crossing(t, dim, basis)`` grades it regular and of the
    missing sign (``deficit`` is doubled, like the index).
    """
    a, b = float(grid[0]), float(grid[-1])
    span = b - a
    sigma_of = functools.partial(_sigma_min, lam1, lam2)
    found = []
    for t0 in sorted(c.time for c in known):
        for step in (-1, 1):
            # the node next to t0 on this side, then outward while sig_min rises
            k = int(np.searchsorted(grid, t0, side="right" if step > 0 else "left"))
            k = k if step > 0 else k - 1
            if deficit == 0 or not 0 <= k < len(grid):
                continue
            while 0 < k < len(grid) - 1 and sig_min[k + step] >= sig_min[k]:
                k += step
            reach = abs(float(grid[k]) - t0)
            if reach <= 1e-7 * span:
                continue
            side = t0 + step * np.geomspace(1e-7 * span, reach, 64)
            sig = np.linalg.svd(
                np.concatenate([lam1.frames(side), lam2.frames(side)], axis=2),
                compute_uv=False)[:, -1]
            for i in range(1, len(side) - 1):
                if deficit == 0 or sig[i] > min(sig[i - 1], sig[i + 1]):
                    continue
                lo, hi = sorted((float(side[i - 1]), float(side[i + 1])))
                t_new, s_new = _refine_dip(sigma_of, lo, hi, span)
                if (s_new > rank_tol
                        or min(t_new - a, b - t_new) < 10 * _TIME_TOL * span
                        or any(abs(t_new - c.time) < 1e-7 * span for c in known + found)):
                    continue
                dim, basis = _intersection_data(lam1, lam2, t_new, max(rank_tol, 1e-7))
                if dim == 0:
                    continue
                c = crossing(t_new, dim, basis)
                if c.regular and c.signature * deficit > 0 and 2 * abs(c.signature) <= abs(deficit):
                    found.append(c)
                    deficit -= 2 * c.signature
    return found


def maslov_index(lam1, lam2, *, strict=True, config: Config = DEFAULT):
    """Robbin-Salamon index of the pair (lam1, lam2) over their interval.

    The value is the eigenphase count of ``_winding_doubled``.  The
    crossing list is its witness, found on the same grid at the dips of
    the smallest singular value of the stacked frames: interior crossings
    count their full signature, endpoint ones half, and when their sum
    falls short of the winding the missing ones are looked for next to
    the located ones.  A list of regular crossings that still disagrees
    with the winding raises CrossingUnresolved.  ``strict`` raises
    IrregularCrossing on a singular crossing form; otherwise it is
    flagged, and the list, which no longer decides, is not checked.
    Intersection dimensions are rank decisions under ``config.tol_rank``.
    """
    if isinstance(lam1, Lagrangian):
        lam1 = LagrangianPath.constant(lam1, (lam2.a, lam2.b))
    if isinstance(lam2, Lagrangian):
        lam2 = LagrangianPath.constant(lam2, (lam1.a, lam1.b))
    if lam1.j.shape != lam2.j.shape or np.max(np.abs(lam1.j - lam2.j)) > 1e-12:
        raise ValidationError("paths live in different ambient forms")
    if abs(lam1.a - lam2.a) > 1e-12 or abs(lam1.b - lam2.b) > 1e-12:
        raise ValidationError("paths must share an interval")
    rank_tol = config.tol_rank
    a, b = lam2.a, lam2.b
    span = b - a
    h = 1e-6 * span

    def crossing(t, dim, basis, side="center"):
        return Crossing(t, dim, *_form_counts(
            _crossing_form(lam1, lam2, t, basis, h, side=side)))

    # endpoints first, then the interior dips of the rank indicator
    crossings, endpoint_nullities = [], []
    for t_end, side in ((a, "right"), (b, "left")):
        dim, basis = _intersection_data(lam1, lam2, t_end, rank_tol)
        endpoint_nullities.append(dim)
        if dim > 0:
            crossings.append(crossing(t_end, dim, basis, side))
    winding, grid, sig_min = _winding_doubled(lam1, lam2, endpoint_nullities)
    inner = sig_min[1:-1]
    dips = np.flatnonzero((inner < 0.15) & (inner <= sig_min[:-2])
                          & (inner <= sig_min[2:])) + 1
    sigma_of = functools.partial(_sigma_min, lam1, lam2)
    located = []
    for i in dips:
        t_hat, s_hat = _refine_dip(sigma_of, float(grid[i - 1]), float(grid[i + 1]), span)
        # a shallow dip is no intersection; endpoint crossings are counted
        if (s_hat <= rank_tol and min(t_hat - a, b - t_hat) >= 10 * _TIME_TOL * span
                and all(abs(t_hat - t0) >= 1e-7 * span for t0 in located)):
            located.append(t_hat)
            dim, basis = _intersection_data(lam1, lam2, t_hat, max(rank_tol, 1e-7))
            if dim > 0:
                crossings.append(crossing(t_hat, dim, basis))
    irregular = [c for c in crossings if not c.regular]
    if strict and irregular:
        where = "endpoint " if irregular[0].time in (a, b) else ""
        raise IrregularCrossing(f"singular crossing form at {where}t={irregular[0].time:.6g}")

    def doubled_sum():
        return sum((1 if min(abs(c.time - a), abs(c.time - b)) < 1e-9 * span else 2)
                   * c.signature for c in crossings)

    if not irregular and doubled_sum() != winding:
        crossings += _missing_crossings(lam1, lam2, grid, sig_min, crossings,
                                        winding - doubled_sum(), crossing, rank_tol)
        if doubled_sum() != winding:
            raise CrossingUnresolved(
                f"the crossings found sum to {doubled_sum()} (doubled) where "
                f"the eigenphase winding counts {winding}")
    crossings.sort(key=lambda c: c.time)
    return IndexReport(HalfInt(winding), tuple(crossings),
                       tuple(endpoint_nullities))


def conley_zehnder_report(path: SymplecticPath, *,
                          config: Config = DEFAULT) -> IndexReport:
    """Conley-Zehnder index of a based symplectic path, with crossing data.

    Computed from the pair (diagonal, graph) in the doubled space; the
    endpoint intersections enter with full weight on top of the interior
    half-weight convention, which lands on the standard normalization
    (index n for a small positive definite rotation, upper value at
    degenerate angles).
    """
    if not path.based:
        raise ValidationError("Conley-Zehnder index needs a based path")
    n = path.n
    w = lagrangian_diagonal(n)
    graph = LagrangianPath.graph(path)
    rep = maslov_index(LagrangianPath.constant(w, (path.a, path.b)), graph,
                       config=config)
    nu_a, nu_b = rep.endpoint_nullities
    doubled = rep.value.doubled + nu_a + nu_b - 2 * n
    return IndexReport(HalfInt(doubled), rep.crossings, rep.endpoint_nullities)


def conley_zehnder(path: SymplecticPath, *, config: Config = DEFAULT) -> HalfInt:
    return conley_zehnder_report(path, config=config).value


def brake_maslov_report(path: SymplecticPath, k=1, *,
                        config: Config = DEFAULT) -> IndexReport:
    """Brake index mu_k: pair index of (L_k, Phi(t) L_k) over [0, tau/2].

    The path must be based on [0, tau]; only its first half enters.
    """
    if not path.based:
        raise ValidationError("brake index needs a based path")
    if k not in (1, 2):
        raise ValidationError("k must be 1 or 2")
    if abs(path.a) > 1e-12:
        raise ValidationError("path must start at t = 0")
    half = path.restricted(0.0, path.b / 2.0)
    lag = lagrangian_l1(path.n) if k == 1 else lagrangian_l2(path.n)
    moving = LagrangianPath.from_symplectic(half, lag)
    return maslov_index(LagrangianPath.constant(lag, (0.0, half.b)), moving,
                        config=config)


def brake_maslov(path: SymplecticPath, k=1, *, config: Config = DEFAULT) -> HalfInt:
    return brake_maslov_report(path, k, config=config).value


def _subspace_intersection_dim(f1, f2, rank_tol):
    m = np.hstack([f1, f2])
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s < rank_tol))


def nullities(path: SymplecticPath, *, config: Config = DEFAULT):
    """(nu, nu1, nu2): eigenvalue-1 multiplicity at tau and the two
    half-period Lagrangian intersection dimensions, under tol.rank."""
    rank_tol = config.tol_rank
    if not path.based:
        raise ValidationError("nullities need a based path")
    n = path.n
    mono = path.end_value()
    s = np.linalg.svd(mono - np.eye(2 * n), compute_uv=False)
    nu = int(np.sum(s < rank_tol * max(1.0, float(s[0]))))
    half = path.value_at((path.a + path.b) / 2.0)
    out = [nu]
    for lag in (lagrangian_l1(n), lagrangian_l2(n)):
        moved, _ = np.linalg.qr(half @ lag.frame)
        out.append(_subspace_intersection_dim(moved, lag.frame, rank_tol))
    return tuple(out)


def cz_of_product(loop: UnitaryLoop, path: SymplecticPath, *,
                  config: Config = DEFAULT) -> HalfInt:
    """Conley-Zehnder index of the pointwise product loop(t) path(t)."""
    return conley_zehnder(pointwise_product(loop, path), config=config)


def mu1_of_product(loop: UnitaryLoop, path: SymplecticPath, *,
                   config: Config = DEFAULT) -> HalfInt:
    """mu_1 of the product loop(t) path(t).

    The shift law mu1(phi Phi) = deg(phi) + mu1(Phi) needs the loop to
    satisfy phi(-t) N0 = N0 phi(t); the residual is checked up front.
    """
    res = check_brake_symmetry(loop, kind="unitary")
    if res > _SYMMETRY_TOL:
        raise SymmetryViolated(
            f"loop violates phi(-t) N0 = N0 phi(t) (residual {res:.2e})"
        )
    return brake_maslov(pointwise_product(loop, path), k=1, config=config)
