"""First-order operator discretization, kernels, and spectral flow."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brakeindex import asymptotic
from brakeindex.asymptotic import (
    BRAKE,
    FULL,
    AsymptoticOperator,
    FlowReport,
    SymmetricLoop,
    blend_family,
    cylinder_index,
    discretize,
    kernel_dimension,
    smoothstep,
    spectral_flow,
)
from brakeindex.config import Config
from brakeindex.core import HalfInt, rotation_path
from brakeindex.errors import (
    CrossingUnresolved,
    EndpointDegenerate,
    GalerkinUnresolved,
    SymmetryViolated,
    TruncationUnstable,
    ValidationError,
)
from brakeindex.indices import brake_maslov, conley_zehnder

TWO_PI = 2 * math.pi


def test_constant_coefficient_spectra():
    # for S = omega I the eigenvalues are 2 pi k - omega, twice on the
    # full domain and once on the brake domain
    omega = 1.3
    K = 6
    loop = SymmetricLoop.constant(omega * np.eye(2))
    want = np.sort([TWO_PI * k - omega for k in range(-K, K + 1)])

    disc, _ = discretize(AsymptoticOperator(loop, FULL), K)
    assert np.allclose(np.sort(disc.eigenvalues), np.repeat(want, 2), atol=1e-9)

    disc_b, _ = discretize(AsymptoticOperator(loop, BRAKE), K)
    assert np.allclose(np.sort(disc_b.eigenvalues), want, atol=1e-9)


def test_constant_shift_moves_spectrum_rigidly():
    base = SymmetricLoop.constant(np.diag([0.4, 0.4]))
    shifted = SymmetricLoop.constant(np.diag([1.9, 1.9]))
    e0 = np.sort(discretize(AsymptoticOperator(base, FULL), 4)[0].eigenvalues)
    e1 = np.sort(discretize(AsymptoticOperator(shifted, FULL), 4)[0].eigenvalues)
    assert np.allclose(e1, e0 - 1.5, atol=1e-9)


def test_kernel_dimensions_at_resonance():
    res = SymmetricLoop.constant(TWO_PI * np.eye(2))
    assert kernel_dimension(AsymptoticOperator(res, FULL), K=8) == 2
    assert kernel_dimension(AsymptoticOperator(res, BRAKE), K=8) == 1
    off = SymmetricLoop.constant(1.0 * np.eye(2))
    assert kernel_dimension(AsymptoticOperator(off, FULL), K=8) == 0
    assert kernel_dimension(AsymptoticOperator(off, BRAKE), K=8) == 0


def test_fourier_loop_evaluates_series():
    c1 = np.array([[0.5, 0.1], [0.1, -0.2]])
    s2 = np.array([[0.0, 0.3], [0.3, 0.0]])
    loop = SymmetricLoop.fourier(np.eye(2), cos={1: c1}, sin={2: s2})
    t = 0.37
    want = np.eye(2) + c1 * math.cos(TWO_PI * t) + s2 * math.sin(2 * TWO_PI * t)
    assert np.max(np.abs(loop(t) - want)) < 1e-12
    assert loop.brake_residual() > 0.1  # the sin term breaks the symmetry


def _coupled_n2_loop(brake_symmetric, shift=0.0):
    # n = 2 blocks with nonzero off-diagonal entries; in the brake case the
    # cos terms commute with N0 = diag(-I, I) and the sin term anticommutes;
    # shift adds a multiple of the identity
    a = np.array([[1.1, 0.3], [0.3, -0.4]])
    b = np.array([[0.6, -0.7], [-0.7, 2.0]])
    x = np.array([[0.2, 0.5], [-0.3, 0.8]])
    z = np.zeros((2, 2))
    const = np.block([[a, z], [z, b]]) + shift * np.eye(4)
    cos1 = np.block([[b, z], [z, 0.5 * a]])
    sin2 = np.block([[z, x], [x.T, z]])
    if not brake_symmetric:
        const = const + np.block([[z, 0.4 * b], [0.4 * b, z]])
        sin2 = sin2 + np.block([[a, z], [z, -b]])
    return SymmetricLoop.fourier(const, cos={1: cos1}, sin={2: sin2}, tau=1.5)


@pytest.mark.parametrize("brake_symmetric", [True, False])
@pytest.mark.parametrize("K", [4, 16])
def test_assembly_matches_literal_quadrature(K, brake_symmetric):
    loop = _coupled_n2_loop(brake_symmetric)
    if brake_symmetric:
        assert loop.brake_residual() < 1e-12
    else:
        assert loop.brake_residual() > 0.1
    n, tau = loop.n, loop.tau
    p_count = 2 * K + 1

    def phi(t):
        vals = [1.0 / math.sqrt(tau)]
        for k in range(1, K + 1):
            w = TWO_PI * k / tau
            vals += [math.sqrt(2.0 / tau) * math.cos(w * t),
                     math.sqrt(2.0 / tau) * math.sin(w * t)]
        return np.array(vals)

    # -J0 d/dt: d/dt cos_k = -nu sin_k and d/dt sin_k = nu cos_k
    j0 = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    deriv = np.zeros((p_count, p_count))
    for k in range(1, K + 1):
        nu = TWO_PI * k / tau
        deriv[2 * k - 1, 2 * k] = -nu
        deriv[2 * k, 2 * k - 1] = nu
    # sum_m w phi_p(t_m) phi_q(t_m) S(t_m)_ij at row p*2n+i, column q*2n+j
    m_pts = max(256, 8 * K + 16)
    mult = np.zeros((p_count * 2 * n, p_count * 2 * n))
    for t in np.arange(m_pts) * (tau / m_pts):
        mult += (tau / m_pts) * np.kron(np.outer(phi(t), phi(t)), loop(t))
    want = np.kron(deriv, j0) - mult

    got = asymptotic._assemble(AsymptoticOperator(loop, FULL), K)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_loop_values_must_be_symmetric():
    with pytest.raises(ValidationError):
        SymmetricLoop(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_brake_domain_requires_symmetric_loop():
    loop = SymmetricLoop.fourier(np.eye(2), sin={1: np.eye(2)})
    AsymptoticOperator(loop, FULL)  # fine
    with pytest.raises(SymmetryViolated):
        AsymptoticOperator(loop, BRAKE)


def test_truncation_instability_detected():
    # a strong high-frequency term couples modes that K = 3 cannot see,
    # so a near-zero eigenvalue of the 2K problem has no K partner
    loop = SymmetricLoop.fourier(
        np.diag([1.0, 2.0]),
        cos={4: 30.0 * np.array([[1.0, 0.4], [0.4, -0.6]])},
    )
    with pytest.raises(TruncationUnstable):
        discretize(AsymptoticOperator(loop, FULL), 3)


def test_blend_family_interpolates_endpoints():
    lm = SymmetricLoop.constant(1.0 * np.eye(2))
    lp = SymmetricLoop.constant(7.0 * np.eye(2))
    fam = blend_family(lm, lp, domain=FULL)
    assert np.max(np.abs(fam.operator_at(fam.s_min).loop(0.2) - lm(0.2))) < 1e-12
    assert np.max(np.abs(fam.operator_at(fam.s_max).loop(0.2) - lp(0.2))) < 1e-12
    mid = fam.operator_at(0.0).loop(0.1)
    assert np.max(np.abs(mid - 4.0 * np.eye(2))) < 1e-12


def test_smoothstep_shape():
    assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    assert smoothstep(-3.0) == 0.0 and smoothstep(4.0) == 1.0


def test_spectral_flow_counts_downward_crossings():
    lm = SymmetricLoop.constant(1.0 * np.eye(2))
    lp = SymmetricLoop.constant(7.0 * np.eye(2))
    flow_full = spectral_flow(blend_family(lm, lp, domain=FULL), K=16)
    assert flow_full.value == 2
    assert sum(j for _, j in flow_full.crossings) == 2
    # the eigenvalue 2 pi - omega(s) hits zero where the blend passes 2 pi
    x = (TWO_PI - 1.0) / 6.0
    s_star = None
    for cand in np.linspace(-1, 1, 200001):
        if smoothstep((cand + 1) / 2) >= x:
            s_star = cand
            break
    assert abs(flow_full.crossings[0][0] - s_star) < 1e-3

    flow_brake = spectral_flow(blend_family(lm, lp, domain=BRAKE), K=16)
    assert flow_brake.value == 1

    # reversing the family flips the sign
    back_full = spectral_flow(blend_family(lp, lm, domain=FULL), K=16)
    assert back_full.value == -2


def test_spectral_flow_equals_index_differences():
    pairs = [(1.0, 7.0), (0.5, 12.0), (-1.0, 5.0)]
    for om_a, om_b in pairs:
        lm = SymmetricLoop.constant(om_a * np.eye(2))
        lp = SymmetricLoop.constant(om_b * np.eye(2))
        flow_b = spectral_flow(blend_family(lm, lp, domain=BRAKE), K=16).value
        flow_f = spectral_flow(blend_family(lm, lp, domain=FULL), K=16).value
        mu = brake_maslov(rotation_path(om_b, samples=1024)) - \
            brake_maslov(rotation_path(om_a, samples=1024))
        cz = conley_zehnder(rotation_path(om_b, samples=1024)) - \
            conley_zehnder(rotation_path(om_a, samples=1024))
        assert HalfInt.from_int(flow_b) == mu
        assert HalfInt.from_int(flow_f) == cz


def test_spectral_flow_two_frequency_block():
    # independent blocks flow independently
    lm = SymmetricLoop.constant(np.diag([1.0, 5.0, 1.0, 5.0]))
    lp = SymmetricLoop.constant(np.diag([7.0, 13.0, 7.0, 13.0]))
    flow = spectral_flow(blend_family(lm, lp, domain=BRAKE), K=16)
    want = (math.floor(7.0 / TWO_PI) - math.floor(1.0 / TWO_PI)) + \
        (math.floor(13.0 / TWO_PI) - math.floor(5.0 / TWO_PI))
    assert flow.value == want


def _per_s_flow(family, K):
    """spectral_flow by the direct route: the blended operator is built and
    assembled afresh at every scanned s, with the same endpoint checks,
    grid, bisection and refinement floor."""
    for s_end in (family.s_min, family.s_max):
        if kernel_dimension(family.operator_at(s_end), K=K) > 0:
            raise EndpointDegenerate(f"family endpoint s={s_end} is degenerate")
    cache = {}

    def neg_count(s):
        if s not in cache:
            op = family.operator_at(s)
            a = asymptotic._assemble(op, K)
            if op.domain == BRAKE:
                a = asymptotic._brake_block(a, K, op.loop.n)
            cache[s] = int(np.sum(np.linalg.eigvalsh(a) < 0.0))
        return cache[s]

    grid = list(np.linspace(family.s_min, family.s_max, asymptotic._S_SAMPLES))
    crossings = []
    stack = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)]
    while stack:
        sl, sr = stack.pop()
        jump = neg_count(sr) - neg_count(sl)
        if jump == 0:
            continue
        if abs(jump) == 1 or sr - sl < asymptotic._REFINE_FLOOR:
            crossings.append(((sl + sr) / 2.0, jump))
            continue
        sm = (sl + sr) / 2.0
        stack.append((sl, sm))
        stack.append((sm, sr))
    crossings.sort(key=lambda c: c[0])
    return FlowReport(neg_count(family.s_max) - neg_count(family.s_min), tuple(crossings))


def _n1_fourier(shift):
    # cos terms commute with N0 = diag(-1, 1), the sin term anticommutes
    return SymmetricLoop.fourier(np.diag([1.0, 1.3]) + shift * np.eye(2),
                                 cos={1: np.diag([0.3, -0.2])},
                                 sin={1: np.array([[0.0, 0.25], [0.25, 0.0]])})


_REFERENCE_FAMILIES = {
    # the double eigenvalue 2 pi - omega bisects down to the floor
    "constant-n1-full-double": lambda: blend_family(
        SymmetricLoop.constant(1.0 * np.eye(2)), SymmetricLoop.constant(7.0 * np.eye(2))),
    "constant-n1-brake": lambda: blend_family(
        SymmetricLoop.constant(1.0 * np.eye(2)), SymmetricLoop.constant(7.0 * np.eye(2)),
        domain=BRAKE),
    "constant-n1-full-reversed": lambda: blend_family(
        SymmetricLoop.constant(7.0 * np.eye(2)), SymmetricLoop.constant(1.0 * np.eye(2))),
    "constant-n2-brake": lambda: blend_family(
        SymmetricLoop.constant(np.diag([1.0, 5.0, 1.0, 5.0])),
        SymmetricLoop.constant(np.diag([7.0, 13.0, 7.0, 13.0])), domain=BRAKE),
    "fourier-n1-full": lambda: blend_family(_n1_fourier(0.0), _n1_fourier(6.6)),
    "fourier-n1-brake": lambda: blend_family(_n1_fourier(0.0), _n1_fourier(6.6),
                                             interval=(0.0, 3.0), domain=BRAKE),
    "fourier-n2-full": lambda: blend_family(_coupled_n2_loop(False, 0.5),
                                            _coupled_n2_loop(False, 9.0)),
    "fourier-n2-brake": lambda: blend_family(_coupled_n2_loop(True, 0.5),
                                             _coupled_n2_loop(True, 9.0), domain=BRAKE),
    "fourier-n2-brake-reversed": lambda: blend_family(
        _coupled_n2_loop(True, 5.0), _coupled_n2_loop(True, -1.0), domain=BRAKE),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
def test_endpoint_blend_matches_per_s_assembly(name):
    family = _REFERENCE_FAMILIES[name]()
    flow = spectral_flow(family, K=16)
    assert flow == _per_s_flow(family, 16)
    assert flow.value != 0
    if name == "constant-n1-full-double":
        assert flow.crossings[0][1] == 2


def test_flow_assembles_a_fixed_number_of_matrices(monkeypatch):
    # the K and 2K checks at each endpoint, whose K matrices the scan
    # blends, however many crossings the family has
    real = asymptotic._assemble
    truncations = []

    def counted(op, K):
        truncations.append(K)
        return real(op, K)

    monkeypatch.setattr(asymptotic, "_assemble", counted)
    crossing_counts = set()
    for domain in (FULL, BRAKE):
        for om_b in (2.0, 7.0, 40.0):
            truncations.clear()
            family = blend_family(SymmetricLoop.constant(1.0 * np.eye(2)),
                                  SymmetricLoop.constant(om_b * np.eye(2)), domain=domain)
            crossing_counts.add(len(spectral_flow(family, K=16).crossings))
            assert sorted(truncations) == [16, 16, 32, 32]
    assert crossing_counts == {0, 1, 6}


# entries on a 1e-3 grid in [-1, 1]
_unit = st.integers(min_value=-1000, max_value=1000).map(lambda k: k / 1000)


def _drawn_block(draw, n):
    return np.array(draw(st.lists(_unit, min_size=n * n, max_size=n * n))).reshape(n, n)


@st.composite
def _weyl_loops(draw, n):
    """(loop, turns): diag(w, w) + P(t), w_i = 2 pi turns_i a margin off
    the integers, with a cos term commuting with N0 = diag(-I, I) and a
    sin term anticommuting with it, so the loop is brake-symmetric.  The
    sum of their norms, a bound on sup |P|, is below the distance of
    every w_i from 2 pi Z, so by Weyl's inequality the negative counts
    are those of diag(w, w)."""
    turns = [draw(st.integers(min_value=-1, max_value=2))
             + draw(st.floats(min_value=0.1, max_value=0.9)) for _ in range(n)]
    z = np.zeros((n, n))
    cos1 = np.block([[_drawn_block(draw, n), z], [z, _drawn_block(draw, n)]])
    cos1 = 0.5 * (cos1 + cos1.T)
    c = _drawn_block(draw, n)
    sin1 = np.block([[z, c], [c.T, z]])
    total = np.linalg.norm(cos1, 2) + np.linalg.norm(sin1, 2)
    gap = TWO_PI * min(abs(t - round(t)) for t in turns)
    scale = draw(st.floats(min_value=0.2, max_value=0.6)) * gap / total if total else 0.0
    w = [TWO_PI * t for t in turns]
    loop = SymmetricLoop.fourier(np.diag(w + w), cos={1: scale * cos1},
                                 sin={1: scale * sin1})
    return loop, turns


@st.composite
def _weyl_families(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    (minus, t_minus), (plus, t_plus) = draw(_weyl_loops(n)), draw(_weyl_loops(n))
    if draw(st.booleans()):
        (minus, t_minus), (plus, t_plus) = (plus, t_plus), (minus, t_minus)
    domain = draw(st.sampled_from([FULL, BRAKE]))
    per_plane = 2 if domain == FULL else 1
    want = per_plane * sum(math.floor(b) - math.floor(a) for a, b in zip(t_minus, t_plus))
    return blend_family(minus, plus, domain=domain), want


@settings(deadline=None, max_examples=25)
@given(_weyl_families())
def test_pencil_scan_equals_per_s_assembly(drawn):
    # skipping the brackets without a pencil root changes no report: the
    # flow and every (s, jump) are those of the route that assembles and
    # eigensolves the blended operator at every scanned s
    family, want = drawn
    flow = spectral_flow(family, K=6)
    assert flow == _per_s_flow(family, 6)
    assert flow.value == want


def _counted_eigvalsh(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(asymptotic.np.linalg, "eigvalsh", counted)
    return calls


def test_scan_eigensolves_only_brackets_holding_a_root(monkeypatch):
    # four eigensolves are the endpoint K and 2K checks; the rest are the
    # scan's: none without a crossing, two for one simple crossing, and a
    # few more for the double one that bisects to the floor
    calls = _counted_eigvalsh(monkeypatch)
    lm = SymmetricLoop.constant(1.0 * np.eye(2))
    for om_b, domain, flow, most in ((2.0, FULL, 0, 0), (2.0, BRAKE, 0, 0),
                                     (7.0, BRAKE, 1, 2), (7.0, FULL, 2, 12)):
        calls.clear()
        family = blend_family(lm, SymmetricLoop.constant(om_b * np.eye(2)), domain=domain)
        assert spectral_flow(family, K=16).value == flow
        assert len(calls) - 4 <= most


def test_identical_endpoints_have_no_flow(monkeypatch):
    calls = _counted_eigvalsh(monkeypatch)
    loop = _n1_fourier(0.0)
    for domain in (FULL, BRAKE):
        assert spectral_flow(blend_family(loop, loop, domain=domain), K=16) == FlowReport(0, ())
    assert len(calls) == 8


def test_missed_pencil_root_raises(monkeypatch):
    family = _REFERENCE_FAMILIES["constant-n1-brake"]()
    real = asymptotic._pencil_roots
    assert real(*(asymptotic._galerkin(family.operator_at(s), 16)
                  for s in (family.s_min, family.s_max))).size == 1
    monkeypatch.setattr(asymptotic, "_pencil_roots", lambda a_minus, a_plus: np.array([]))
    with pytest.raises(CrossingUnresolved):
        spectral_flow(family, K=16)


@pytest.mark.filterwarnings("error")
def test_non_finite_or_overflowing_coefficients_raise_typed_errors():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            SymmetricLoop.constant(np.diag([bad, 1.0]))
        with pytest.raises(ValidationError):
            SymmetricLoop.fourier(np.eye(2), cos={1: np.diag([bad, 0.0])})
    # the Galerkin matrix of 1e308 overflows; that of 1e200 is finite, but
    # rounding alone dwarfs the K-vs-2K stability tolerance
    for big in (1e308, 1e200):
        op = AsymptoticOperator(SymmetricLoop.constant(np.diag([big, 1.0])), FULL)
        with pytest.raises(GalerkinUnresolved):
            discretize(op, 8)


def test_brake_flow_rejects_non_symmetric_endpoint():
    sym = SymmetricLoop.constant(1.0 * np.eye(2))
    skew = SymmetricLoop.fourier(7.0 * np.eye(2), sin={1: np.eye(2)})
    for lm, lp in ((sym, skew), (skew, sym)):
        with pytest.raises(SymmetryViolated):
            spectral_flow(blend_family(lm, lp, domain=BRAKE), K=16)
        spectral_flow(blend_family(lm, lp, domain=FULL), K=16)  # fine


def test_degenerate_endpoint_rejected():
    lm = SymmetricLoop.constant(TWO_PI * np.eye(2))
    lp = SymmetricLoop.constant(1.0 * np.eye(2))
    with pytest.raises(EndpointDegenerate):
        spectral_flow(blend_family(lm, lp, domain=FULL), K=16)


def test_cylinder_index_is_half_integer_flow():
    lm = SymmetricLoop.constant(math.pi * np.eye(2))
    lp = SymmetricLoop.constant(3 * math.pi * np.eye(2))
    idx = cylinder_index(blend_family(lm, lp, domain=BRAKE), K=16)
    assert idx == HalfInt.from_int(1)


def test_operator_family_samples_interval():
    lm = SymmetricLoop.constant(1.0 * np.eye(2))
    lp = SymmetricLoop.constant(2.0 * np.eye(2))
    fam = blend_family(lm, lp, interval=(0.0, 4.0), domain=FULL)
    assert (fam.s_min, fam.s_max) == (0.0, 4.0)
    op = fam.operator_at(2.0)
    assert isinstance(op, AsymptoticOperator)
    assert op.domain == FULL


def test_kernel_dimension_respects_zero_tol():
    # an eigenvalue at -1e-4 counts as kernel only with a loose tolerance
    loop = SymmetricLoop.constant((TWO_PI + 1e-4) * np.eye(2))
    op = AsymptoticOperator(loop, FULL)
    assert kernel_dimension(op, K=8, config=Config(tol_zero_eig=1e-6)) == 0
    assert kernel_dimension(op, K=8, config=Config(tol_zero_eig=1e-3)) == 2


def _sym(rng, n):
    m = rng.uniform(-1.0, 1.0, (2 * n, 2 * n))
    return m + m.T


@pytest.mark.parametrize("tau", [1.0, 1.5])
@pytest.mark.parametrize("n", [1, 2])
def test_fourier_values_equal_stacked_calls(n, tau):
    rng = np.random.default_rng(41 + n)
    loop = SymmetricLoop.fourier(_sym(rng, n),
                                 cos={1: _sym(rng, n), 2: _sym(rng, n)},
                                 sin={1: _sym(rng, n), 2: _sym(rng, n)}, tau=tau)
    ts = np.concatenate([[0.0, tau, -tau, 2.5 * tau, -0.3], rng.uniform(-2.0, 3.0, 200)])
    assert np.array_equal(loop.values(ts), np.stack([loop(t) for t in ts]))


def test_constant_and_blend_values_equal_stacked_calls():
    rng = np.random.default_rng(5)
    const = SymmetricLoop.constant(_sym(rng, 2), tau=1.5)
    wavy = SymmetricLoop.fourier(_sym(rng, 2), cos={2: _sym(rng, 2)},
                                 sin={1: _sym(rng, 2)}, tau=1.5)
    ts = np.concatenate([[0.0, 1.5, -1.5, -0.2], rng.uniform(-3.0, 3.0, 100)])
    assert np.array_equal(const.values(ts), np.stack([const(t) for t in ts]))
    fam = blend_family(const, wavy)
    for s in (-1.0, -0.4, 0.0, 0.35, 1.0):
        loop = fam.operator_at(s).loop
        assert np.array_equal(loop.values(ts), np.stack([loop(t) for t in ts]))
    # a loop from a plain callable stacks its calls
    plain = SymmetricLoop(lambda t: wavy(t), 2, tau=1.5)
    assert np.array_equal(plain.values(ts), wavy.values(ts))
