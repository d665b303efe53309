"""Asymptotic operators -J0 d/dt - S(t) and their spectral flow.

Discretization uses the real Fourier basis {1, cos(2 pi k t / tau),
sin(2 pi k t / tau)} tensored with R^{2n}, truncated at order K.  The
derivative part is exact in this basis; the multiplication part is
assembled by trapezoidal quadrature on a periodic grid, which is
spectrally accurate.

The brake-symmetric domain is the subspace of loops with w(-t) = N0 w(t),
spanned by cosine modes valued in L1 and sine modes valued in L2.

Spectral flow counts eigenvalue crossings through zero with the sign
that makes the flow of a family equal the index of d/ds - A(s): an
eigenvalue moving from positive to negative contributes +1 (the kernel
of the translation-invariant operator gains a decaying solution there).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULT, Config
from .core import (
    HalfInt,
    brake_involution,
    check_brake_symmetry,
    standard_symplectic,
)
from .errors import (
    CrossingUnresolved,
    EndpointDegenerate,
    GalerkinUnresolved,
    SymmetryViolated,
    TruncationUnstable,
    ValidationError,
)

FULL = "full"
BRAKE = "brake"

# largest brake residual N0 S(-t) N0 - S(t) accepted on the brake domain
_SYMMETRY_TOL = 1e-8
# every 2K eigenvalue inside the window needs a K partner this close
_STABILITY_WINDOW = 0.05
_STABILITY_TOL = 1e-3
# spectral-flow scan: initial samples, and the bracket width below which
# a multiple jump is recorded as one crossing
_S_SAMPLES = 64
_REFINE_FLOOR = 1e-10
# pencil roots that decide which brackets are eigensolved: a root counts
# when |Im lambda| <= _ROOT_IMAG_TOL |lambda|, and it is sought in each
# bracket's beta-interval widened by _ROOT_PAD on both sides
_ROOT_IMAG_TOL = 1e-6
_ROOT_PAD = 1e-9


class SymmetricLoop:
    """A tau-periodic loop of symmetric coefficient matrices."""

    def __init__(self, fn, n, tau=1.0):
        self.fn = fn
        self.n = int(n)
        self.tau = float(tau)
        probe = np.asarray(fn(0.37 * self.tau), dtype=float)
        if probe.shape != (2 * self.n, 2 * self.n):
            raise ValidationError(f"loop values must be {2 * self.n} square")
        if not np.isfinite(probe).all():
            raise ValidationError("loop values must be finite")
        if np.max(np.abs(probe - probe.T)) > 1e-10:
            raise ValidationError("loop values must be symmetric matrices")
        # batch(ts) for times reduced mod tau, when the loop has one
        self._batch = None

    def __call__(self, t):
        return np.asarray(self.fn(float(t) % self.tau), dtype=float)

    def values(self, ts):
        """The loop at every time of the 1-d array ``ts``, stacked to
        (len(ts), 2n, 2n); element for element what ``__call__`` returns."""
        if self._batch is None:
            return np.stack([self(t) for t in ts])
        return self._batch(np.asarray(ts, dtype=float) % self.tau)

    @classmethod
    def _batched(cls, fn, batch, n, tau):
        loop = cls(fn, n, tau)
        loop._batch = batch
        return loop

    @classmethod
    def constant(cls, m, tau=1.0):
        m = np.asarray(m, dtype=float)
        return cls._batched(lambda t: m, lambda ts: np.repeat(m[None], len(ts), axis=0),
                            m.shape[0] // 2, tau)

    @classmethod
    def fourier(cls, const, cos=None, sin=None, tau=1.0):
        """S(t) = const + sum_k cos_k cos(2 pi k t/tau) + sin_k sin(...)."""
        const = np.asarray(const, dtype=float)
        cos = {int(k): np.asarray(m, dtype=float) for k, m in (cos or {}).items()}
        sin = {int(k): np.asarray(m, dtype=float) for k, m in (sin or {}).items()}

        def fn(t):
            out = const.copy()
            for k, m in cos.items():
                out = out + m * math.cos(2 * math.pi * k * t / tau)
            for k, m in sin.items():
                out = out + m * math.sin(2 * math.pi * k * t / tau)
            return out

        def batch(ts):
            # the same sum in the same order; the trig factors come from
            # math per time, as fn takes them
            out = np.repeat(const[None], len(ts), axis=0)
            for trig, terms in ((math.cos, cos), (math.sin, sin)):
                for k, m in terms.items():
                    args = (2 * math.pi * k * ts / tau).tolist()
                    out = out + m * np.array([trig(x) for x in args])[:, None, None]
            return out

        return cls._batched(fn, batch, const.shape[0] // 2, tau)

    def brake_residual(self):
        return check_brake_symmetry(self, kind="coefficient")


@dataclasses.dataclass(frozen=True)
class AsymptoticOperator:
    """-J0 d/dt - S(t) on loops, on the full or brake-symmetric domain."""

    loop: SymmetricLoop
    domain: str = FULL

    def __post_init__(self):
        if self.domain not in (FULL, BRAKE):
            raise ValidationError("domain must be 'full' or 'brake'")
        if self.domain == BRAKE:
            res = self.loop.brake_residual()
            if res > _SYMMETRY_TOL:
                raise SymmetryViolated(
                    f"coefficient loop is not brake-symmetric (residual {res:.2e})"
                )


def _basis_matrix(K, tau, grid):
    """Rows: normalized 1, cos_1, sin_1, ..., cos_K, sin_K on the grid."""
    rows = [np.full(len(grid), 1.0 / math.sqrt(tau))]
    for k in range(1, K + 1):
        w = 2 * math.pi * k / tau
        rows.append(math.sqrt(2.0 / tau) * np.cos(w * grid))
        rows.append(math.sqrt(2.0 / tau) * np.sin(w * grid))
    return np.stack(rows)


def _assemble(op: AsymptoticOperator, K):
    """Full-domain Galerkin matrix of -J0 d/dt - S(t) at truncation K."""
    n = op.loop.n
    tau = op.loop.tau
    two_n = 2 * n
    p_count = 2 * K + 1
    dim = p_count * two_n
    j0 = standard_symplectic(n)

    a = np.zeros((dim, dim))
    # derivative part: exact on the trig basis
    for k in range(1, K + 1):
        nu = 2 * math.pi * k / tau
        ic = (2 * k - 1) * two_n
        isn = 2 * k * two_n
        a[ic : ic + two_n, isn : isn + two_n] = -nu * j0
        a[isn : isn + two_n, ic : ic + two_n] = nu * j0

    # multiplication part by periodic trapezoid quadrature
    m_pts = max(256, 8 * K + 16)
    grid = np.arange(m_pts) * (tau / m_pts)
    svals = op.loop.values(grid)
    basis = _basis_matrix(K, tau, grid)
    weighted = basis * (tau / m_pts)
    # entry (p, i; q, j) is sum_m w phi_p(t_m) phi_q(t_m) S(t_m)_ij; one
    # BLAS product per coefficient entry fills the strided (i, j) block
    for i in range(two_n):
        for j in range(two_n):
            a[i::two_n, j::two_n] -= (weighted * svals[:, i, j]) @ basis.T
    return (a + a.T) / 2.0


def _brake_block(a, K, n):
    """The block of the Galerkin matrix on the w(-t) = N0 w(t) subspace,
    whose mode coordinates are the constant and cos modes valued in
    L1 = fix(N0) (components n..2n-1) and the sin modes in L2
    (components 0..n-1)."""
    two_n = 2 * n
    idx = list(range(n, two_n))
    for k in range(1, K + 1):
        idx += range((2 * k - 1) * two_n + n, 2 * k * two_n)
        idx += range(2 * k * two_n, 2 * k * two_n + n)
    return a[np.ix_(idx, idx)]


@dataclasses.dataclass(frozen=True)
class Discretization:
    matrix: np.ndarray
    eigenvalues: np.ndarray


def _galerkin(op: AsymptoticOperator, K):
    """Galerkin matrix of op at truncation K, on op's domain."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = _assemble(op, K)
    if not np.isfinite(a).all():
        raise GalerkinUnresolved(f"Galerkin matrix at K={K} overflows")
    return _brake_block(a, K, op.loop.n) if op.domain == BRAKE else a


def discretize(op: AsymptoticOperator, K=None, *, config: Config = DEFAULT):
    """Symmetric eigenproblem at truncation K (fourier.K by default),
    validated against 2K; returns the K discretization and the 2K
    eigenvalues.

    Every eigenvalue of the 2K problem inside the stability window must
    be matched by a K eigenvalue within the stability tolerance, else the
    truncation is declared unstable.  The match cannot be decided when
    the eigensolver's rounding bound, size x eps x the largest |eigenvalue|,
    exceeds that tolerance.
    """
    K = config.fourier_K if K is None else int(K)
    a = _galerkin(op, K)
    eigs = np.linalg.eigvalsh(a)
    eigs2 = np.linalg.eigvalsh(_galerkin(op, 2 * K))
    rounding = eigs2.size * np.finfo(float).eps * max(-eigs2[0], eigs2[-1])
    if rounding > _STABILITY_TOL:
        raise GalerkinUnresolved(
            f"rounding bound {rounding:.2e} of the 2K={2 * K} spectrum exceeds "
            f"the stability tolerance {_STABILITY_TOL:g}")
    near = eigs2[np.abs(eigs2) < _STABILITY_WINDOW]
    for lam in near:
        if np.min(np.abs(eigs - lam)) > _STABILITY_TOL:
            raise TruncationUnstable(
                f"eigenvalue {lam:.6g} at 2K={2 * K} has no partner at K={K}"
            )
    return Discretization(a, eigs), eigs2


def _zero_threshold(eigs2, zero_tol):
    above = np.abs(eigs2)[np.abs(eigs2) >= zero_tol]
    gap = float(np.min(above)) if above.size else zero_tol
    return min(zero_tol, gap / 10.0)


def _checked_kernel(op: AsymptoticOperator, K, config: Config):
    """The kernel dimension of ``kernel_dimension`` and the K
    discretization it was read from."""
    disc, eigs2 = discretize(op, K, config=config)
    thr = _zero_threshold(eigs2, config.tol_zero_eig)
    count = int(np.sum(np.abs(disc.eigenvalues) < thr))
    count2 = int(np.sum(np.abs(eigs2) < thr))
    if count != count2:
        raise TruncationUnstable(
            f"kernel count changed between K ({count}) and 2K ({count2})"
        )
    return count, disc


def kernel_dimension(op: AsymptoticOperator, K=None, *, config: Config = DEFAULT):
    """Dimension of the numerical kernel under tol.zero_eig, stable
    between K and 2K."""
    return _checked_kernel(op, K, config)[0]


def smoothstep(x):
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


@dataclasses.dataclass(frozen=True)
class OperatorFamily:
    """The family s -> -J0 d/dt - S_s(t) over [s_min, s_max] on one domain,
    with S_s = (1 - beta(s)) S- + beta(s) S+ a smoothstep blend of two
    coefficient loops."""

    loop_minus: SymmetricLoop
    loop_plus: SymmetricLoop
    s_min: float
    s_max: float
    domain: str = FULL

    def beta(self, s):
        return smoothstep((s - self.s_min) / (self.s_max - self.s_min))

    def operator_at(self, s):
        beta = self.beta(float(s))
        minus, plus = self.loop_minus, self.loop_plus
        loop = SymmetricLoop._batched(
            lambda t: (1.0 - beta) * minus(t) + beta * plus(t),
            lambda ts: (1.0 - beta) * minus.values(ts) + beta * plus.values(ts),
            minus.n, minus.tau)
        return AsymptoticOperator(loop, self.domain)


def blend_family(loop_minus: SymmetricLoop, loop_plus: SymmetricLoop,
                 interval=(-1.0, 1.0), domain=FULL):
    """Family interpolating two coefficient loops with a smoothstep ramp."""
    if loop_minus.n != loop_plus.n or abs(loop_minus.tau - loop_plus.tau) > 1e-12:
        raise ValidationError("endpoint loops must share n and tau")
    s0, s1 = float(interval[0]), float(interval[1])
    if not s0 < s1:
        raise ValidationError("family interval must be nondegenerate")
    return OperatorFamily(loop_minus, loop_plus, s0, s1, domain)


@dataclasses.dataclass(frozen=True)
class FlowReport:
    value: int
    crossings: tuple  # (s, sign) pairs, sign +1 for positive-to-negative


def _pencil_roots(a_minus, a_plus):
    """Sorted candidate roots beta in [-_ROOT_PAD, 1 + _ROOT_PAD] of
    det(A- + beta D) = 0, D = A+ - A-, for a nonsingular A-.

    They are beta = -1/lambda over the eigenvalues lambda of A-^{-1} D
    that are real to _ROOT_IMAG_TOL; a rounding-split pair of a multiple
    root gives two candidates near the same beta.
    """
    try:
        lam = np.linalg.eigvals(np.linalg.solve(a_minus, a_plus - a_minus))
    except np.linalg.LinAlgError as exc:
        raise EndpointDegenerate("Galerkin matrix at the family start is singular") from exc
    lam = lam[np.abs(lam.imag) <= _ROOT_IMAG_TOL * np.abs(lam)].real
    # beta <= 1 + pad for lambda < 0, beta >= -pad for lambda > 0
    lam = lam[(lam <= -1.0 / (1.0 + _ROOT_PAD)) | (lam >= 1.0 / _ROOT_PAD)]
    return np.sort(-1.0 / lam)


def spectral_flow(family: OperatorFamily, K=None, *, config: Config = DEFAULT):
    """Signed count of eigenvalue crossings through zero along the family.

    The count tracks the number of negative eigenvalues: a crossing from
    positive to negative contributes +1.  Brackets where the negative
    count jumps are bisected; a bracket that shrinks to the refinement
    floor is recorded as one crossing of that multiplicity (symmetric
    problems cross in genuine pairs).  Endpoints must be nondegenerate
    under tol.zero_eig, and brake-symmetric on the brake domain.

    The Galerkin matrix is linear in the coefficient loop, so each
    scanned s blends the two endpoint matrices that the endpoint checks
    built; the brake residual is a seminorm, so symmetric endpoints make
    every blend symmetric.  With beta = beta(s) the blend is A- + beta D,
    D = A+ - A-, and A- is nonsingular, so the negative count can change
    only at a real root beta of det(A- + beta D) = 0.  Those roots come
    from one eigensolve of the pencil, and only brackets whose
    beta-interval (padded) holds one are eigensolved: a bracket without
    one keeps its count, and a bisection midpoint next to a half without
    one takes the count of that half's outer end.  Every other count is
    a symmetric eigensolve of the blend.  The jumps found must add up to
    the endpoint difference, else a root was missed and
    ``CrossingUnresolved`` is raised.
    """
    K = config.fourier_K if K is None else int(K)

    ends, counts = [], {}
    for s_end in (family.s_min, family.s_max):
        kernel, disc = _checked_kernel(family.operator_at(s_end), K, config)
        if kernel > 0:
            raise EndpointDegenerate(f"family endpoint s={s_end} is degenerate")
        ends.append(disc.matrix)
        counts[s_end] = int(np.sum(disc.eigenvalues < 0.0))
    a_minus, a_plus = ends
    roots = _pencil_roots(a_minus, a_plus)

    def holds_root(sl, sr):
        i = np.searchsorted(roots, family.beta(sl) - _ROOT_PAD)
        return i < roots.size and roots[i] <= family.beta(sr) + _ROOT_PAD

    def neg_count(s):
        if s not in counts:
            beta = family.beta(s)
            a = (1.0 - beta) * a_minus + beta * a_plus
            counts[s] = int(np.sum(np.linalg.eigvalsh(a) < 0.0))
        return counts[s]

    grid = list(np.linspace(family.s_min, family.s_max, _S_SAMPLES))
    crossings = []
    stack = [(sl, sr) for sl, sr in zip(grid[:-1], grid[1:]) if holds_root(sl, sr)]
    while stack:
        sl, sr = stack.pop()
        jump = neg_count(sr) - neg_count(sl)
        if jump == 0:
            continue
        if abs(jump) == 1 or sr - sl < _REFINE_FLOOR:
            crossings.append(((sl + sr) / 2.0, jump))
            continue
        sm = (sl + sr) / 2.0
        if not holds_root(sl, sm):
            counts[sm] = neg_count(sl)
        elif not holds_root(sm, sr):
            counts[sm] = neg_count(sr)
        stack.append((sl, sm))
        stack.append((sm, sr))
    crossings.sort(key=lambda c: c[0])
    total = counts[family.s_max] - counts[family.s_min]
    found = sum(jump for _, jump in crossings)
    if found != total:
        raise CrossingUnresolved(
            f"crossings found sum to {found} where the endpoint negative "
            f"counts differ by {total}; a pencil root was missed")
    return FlowReport(total, tuple(crossings))


def cylinder_index(family: OperatorFamily, K=None, *,
                   config: Config = DEFAULT) -> HalfInt:
    """Fredholm index of the model cylinder operator, as a HalfInt."""
    return HalfInt.from_int(spectral_flow(family, K=K, config=config).value)
