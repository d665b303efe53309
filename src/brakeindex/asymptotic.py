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


class SymmetricLoop:
    """A tau-periodic loop of symmetric coefficient matrices."""

    def __init__(self, fn, n, tau=1.0):
        self.fn = fn
        self.n = int(n)
        self.tau = float(tau)
        probe = np.asarray(fn(0.37 * self.tau), dtype=float)
        if probe.shape != (2 * self.n, 2 * self.n):
            raise ValidationError(f"loop values must be {2 * self.n} square")
        if np.max(np.abs(probe - probe.T)) > 1e-10:
            raise ValidationError("loop values must be symmetric matrices")

    def __call__(self, t):
        return np.asarray(self.fn(float(t) % self.tau), dtype=float)

    @classmethod
    def constant(cls, m, tau=1.0):
        m = np.asarray(m, dtype=float)
        return cls(lambda t: m, m.shape[0] // 2, tau)

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

        return cls(fn, const.shape[0] // 2, tau)

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
    svals = np.stack([op.loop(t) for t in grid])
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
    K: int
    domain: str


def discretize(op: AsymptoticOperator, K=None, check_stability=True, *,
               config: Config = DEFAULT):
    """Symmetric eigenproblem at truncation K (fourier.K by default),
    validated against 2K.

    Every eigenvalue of the 2K problem inside the stability window must
    be matched by a K eigenvalue within the stability tolerance, else the
    truncation is declared unstable.
    """
    K = config.fourier_K if K is None else int(K)
    a = _assemble(op, K)
    if op.domain == BRAKE:
        a = _brake_block(a, K, op.loop.n)
    eigs = np.linalg.eigvalsh(a)
    if check_stability:
        a2 = _assemble(op, 2 * K)
        if op.domain == BRAKE:
            a2 = _brake_block(a2, 2 * K, op.loop.n)
        eigs2 = np.linalg.eigvalsh(a2)
        near = eigs2[np.abs(eigs2) < _STABILITY_WINDOW]
        for lam in near:
            if np.min(np.abs(eigs - lam)) > _STABILITY_TOL:
                raise TruncationUnstable(
                    f"eigenvalue {lam:.6g} at 2K={2 * K} has no partner at K={K}"
                )
        return Discretization(a, eigs, K, op.domain), eigs2
    return Discretization(a, eigs, K, op.domain), None


def _zero_threshold(eigs2, zero_tol):
    above = np.abs(eigs2)[np.abs(eigs2) >= zero_tol]
    gap = float(np.min(above)) if above.size else zero_tol
    return min(zero_tol, gap / 10.0)


def kernel_dimension(op: AsymptoticOperator, K=None, *, config: Config = DEFAULT):
    """Dimension of the numerical kernel under tol.zero_eig, stable
    between K and 2K."""
    disc, eigs2 = discretize(op, K, check_stability=True, config=config)
    thr = _zero_threshold(eigs2, config.tol_zero_eig)
    count = int(np.sum(np.abs(disc.eigenvalues) < thr))
    count2 = int(np.sum(np.abs(eigs2) < thr))
    if count != count2:
        raise TruncationUnstable(
            f"kernel count changed between K ({count}) and 2K ({count2})"
        )
    return count


class OperatorFamily:
    """A one-parameter family s -> AsymptoticOperator over [s_min, s_max]."""

    def __init__(self, loop_of_s, interval, domain=FULL, n=None, tau=1.0):
        self.s_min = float(interval[0])
        self.s_max = float(interval[1])
        if not self.s_min < self.s_max:
            raise ValidationError("family interval must be nondegenerate")
        self._loop_of_s = loop_of_s
        self.domain = domain
        probe = loop_of_s(self.s_min)
        self.n = probe.n if n is None else n
        self.tau = probe.tau

    def operator_at(self, s):
        return AsymptoticOperator(self._loop_of_s(float(s)), self.domain)


def smoothstep(x):
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


def blend_family(loop_minus: SymmetricLoop, loop_plus: SymmetricLoop,
                 interval=(-1.0, 1.0), domain=FULL):
    """Family interpolating two coefficient loops with a smoothstep ramp."""
    if loop_minus.n != loop_plus.n or abs(loop_minus.tau - loop_plus.tau) > 1e-12:
        raise ValidationError("endpoint loops must share n and tau")
    s0, s1 = float(interval[0]), float(interval[1])

    def loop_of_s(s):
        beta = smoothstep((s - s0) / (s1 - s0))

        def fn(t):
            return (1.0 - beta) * loop_minus(t) + beta * loop_plus(t)

        return SymmetricLoop(fn, loop_minus.n, loop_minus.tau)

    return OperatorFamily(loop_of_s, interval, domain=domain)


@dataclasses.dataclass(frozen=True)
class FlowReport:
    value: int
    crossings: tuple  # (s, sign) pairs, sign +1 for positive-to-negative


def spectral_flow(family: OperatorFamily, K=None, max_multiplicity=None, *,
                  config: Config = DEFAULT):
    """Signed count of eigenvalue crossings through zero along the family.

    The count tracks the number of negative eigenvalues: a crossing from
    positive to negative contributes +1.  Brackets where the negative
    count jumps are bisected; a bracket that shrinks to the refinement
    floor is recorded as one crossing of that multiplicity (symmetric
    problems cross in genuine pairs).  With ``max_multiplicity`` set, a
    floor-width bracket jumping by more raises CrossingUnresolved.
    Endpoints must be nondegenerate under tol.zero_eig.
    """
    K = config.fourier_K if K is None else int(K)

    for s_end in (family.s_min, family.s_max):
        if kernel_dimension(family.operator_at(s_end), K=K, config=config) > 0:
            raise EndpointDegenerate(f"family endpoint s={s_end} is degenerate")

    cache = {}

    def neg_count(s):
        if s not in cache:
            a = _assemble(family.operator_at(s), K)
            if family.domain == BRAKE:
                a = _brake_block(a, K, family.n)
            cache[s] = int(np.sum(np.linalg.eigvalsh(a) < 0.0))
        return cache[s]

    grid = list(np.linspace(family.s_min, family.s_max, _S_SAMPLES))
    crossings = []
    stack = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)]
    while stack:
        sl, sr = stack.pop()
        jump = neg_count(sr) - neg_count(sl)
        if jump == 0:
            continue
        if abs(jump) == 1:
            crossings.append(((sl + sr) / 2.0, jump))
            continue
        if sr - sl < _REFINE_FLOOR:
            if max_multiplicity is not None and abs(jump) > max_multiplicity:
                raise CrossingUnresolved(
                    f"negative count jumps by {jump} inside [{sl}, {sr}]"
                )
            crossings.append(((sl + sr) / 2.0, jump))
            continue
        sm = (sl + sr) / 2.0
        stack.append((sl, sm))
        stack.append((sm, sr))
    crossings.sort(key=lambda c: c[0])
    total = neg_count(family.s_max) - neg_count(family.s_min)
    return FlowReport(total, tuple(crossings))


def cylinder_index(family: OperatorFamily, K=None, *,
                   config: Config = DEFAULT) -> HalfInt:
    """Fredholm index of the model cylinder operator, as a HalfInt."""
    return HalfInt.from_int(spectral_flow(family, K=K, config=config).value)
