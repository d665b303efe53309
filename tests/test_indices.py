"""Robbin-Salamon pair index, Conley-Zehnder, brake indices, nullities."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from brakeindex.asymptotic import SymmetricLoop
from brakeindex.core import (
    HalfInt,
    SymplecticPath,
    diagonal_unitary_loop,
    fundamental_solution,
    hyperbolic_path,
    lagrangian_l1,
    rotation_path,
    standard_symplectic,
)
from brakeindex.config import Config
from brakeindex.errors import (
    CrossingUnresolved,
    IrregularCrossing,
    Undersampled,
    ValidationError,
)
from brakeindex.indices import (
    LagrangianPath,
    brake_maslov,
    brake_maslov_report,
    conley_zehnder,
    conley_zehnder_report,
    cz_of_product,
    maslov_index,
    mu1_of_product,
    nullities,
)
from brakeindex.moduli import iterate_path


def test_brake_index_odd_rotation_table():
    # mu1(R(omega t)) = 1/2 + k at omega = (2k+1) pi, exactly
    for k, omega in enumerate(math.pi * np.array([1, 3, 5, 7])):
        assert brake_maslov(rotation_path(omega, samples=1024)) == HalfInt(1 + 2 * k)


def test_brake_index_nonresonant_floor_formula():
    for omega in (1.0, 5.0, 7.0, 12.0, -1.0, -7.0):
        want = HalfInt(1) + math.floor(omega / (2 * math.pi))
        got = brake_maslov(rotation_path(omega, samples=1024))
        assert got == want, f"omega={omega}: {got} != {want}"


def test_conley_zehnder_nonresonant_formula():
    for omega in (1.0, 5.0, 7.0, 12.0, -1.0):
        want = HalfInt.from_int(2 * math.floor(omega / (2 * math.pi)) + 1)
        assert conley_zehnder(rotation_path(omega, samples=1024)) == want


def test_conley_zehnder_full_turn_upper_value():
    # the degenerate angle takes the value from the right
    assert conley_zehnder(rotation_path(2 * math.pi, samples=1024)) == HalfInt.from_int(3)
    assert conley_zehnder(rotation_path(4 * math.pi, samples=1024)) == HalfInt.from_int(5)


def test_crossing_times_match_analytic_roots():
    omega = 3 * math.pi
    rep = brake_maslov_report(rotation_path(omega, samples=1024))
    # moving frame R(omega t) L1 meets L1 where sin(omega t) = 0, t in [0, 1/2]
    want = [0.0, math.pi / omega]
    got = sorted(c.time for c in rep.crossings)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-7)
    assert all(c.dim == 1 and c.signature == 1 for c in rep.crossings)


def test_negative_hyperbolic_iterates_grade_linearly():
    # cz of the m-fold cover of the model with eigenvalues (-2, -1/2) is m;
    # interior crossings sit where cos(pi t)(2^t + 2^-t) = 2
    base = hyperbolic_path(-2.0, samples=513)

    def trace_minus_two(t):
        return math.cos(math.pi * t) * (2.0 ** t + 2.0 ** -t) - 2.0

    for m in (1, 2, 3, 4):
        rep = conley_zehnder_report(iterate_path(base, m))
        assert rep.value == HalfInt.from_int(m), f"m={m}: {rep.value}"
        interior = [c for c in rep.crossings if c.time > 1e-9]
        roots = []
        for a in np.arange(0.25, m - 0.25, 0.5):
            fa, fb = trace_minus_two(a), trace_minus_two(a + 0.5)
            if fa * fb < 0:
                roots.append(scipy.optimize.brentq(trace_minus_two, a, a + 0.5))
        assert len(interior) == len(roots)
        for c, r in zip(sorted(c.time for c in interior), sorted(roots)):
            assert c == pytest.approx(r, abs=1e-7)


def test_nullities_table():
    assert nullities(rotation_path(2 * math.pi, samples=513)) == (2, 1, 1)
    assert nullities(rotation_path(math.pi, samples=513)) == (0, 0, 0)
    assert nullities(hyperbolic_path(-2.0, samples=257)) == (0, 0, 0)
    two_block = rotation_path(2 * math.pi, n=2, samples=513)
    assert nullities(two_block) == (4, 2, 2)


def test_rs_index_is_additive_under_splitting():
    path = rotation_path(3 * math.pi, samples=1025)
    lag = lagrangian_l1(1)
    moving = LagrangianPath.from_symplectic(path, lag)
    const = LagrangianPath.constant(lag, (0.0, 1.0))
    whole = maslov_index(const, moving).value
    split = 0.41  # not a crossing
    left = maslov_index(LagrangianPath.constant(lag, (0.0, split)),
                        moving.restricted(0.0, split)).value
    right = maslov_index(LagrangianPath.constant(lag, (split, 1.0)),
                         moving.restricted(split, 1.0)).value
    assert left + right == whole


def test_rs_index_flips_under_reversal():
    path = rotation_path(5.0, samples=513)
    lag = lagrangian_l1(1)
    moving = LagrangianPath.from_symplectic(path, lag)
    const = LagrangianPath.constant(lag, (0.0, 1.0))
    fwd = maslov_index(const, moving).value
    bwd = maslov_index(LagrangianPath.constant(lag, (0.0, 1.0)),
                       moving.reversed()).value
    assert fwd + bwd == HalfInt(0)


def test_loop_shift_laws():
    path = rotation_path(1.3, samples=513)
    base_cz = conley_zehnder(path)
    base_mu = brake_maslov(path)
    for k in (-1, 2):
        loop = diagonal_unitary_loop((k,))
        assert cz_of_product(loop, path) == base_cz + HalfInt.from_int(2 * k)
        assert mu1_of_product(loop, path) == base_mu + HalfInt.from_int(k)
        # oracle: the product is itself a rotation path
        direct = conley_zehnder(rotation_path(2 * math.pi * k + 1.3, samples=513))
        assert cz_of_product(loop, path) == direct


def _angle_path(angle, samples=257, interval=(0.0, 1.0)):
    """Moving line span{(sin a(t), cos a(t))} in R^2."""
    j = standard_symplectic(1)

    def frame(t):
        return np.array([[math.sin(angle(t))], [math.cos(angle(t))]])

    times = np.linspace(interval[0], interval[1], samples)
    return LagrangianPath(frame, times, j)


def test_tangential_crossing_raises_in_strict_mode():
    moving = _angle_path(lambda t: (t - 0.5) ** 3)
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    with pytest.raises(IrregularCrossing):
        maslov_index(const, moving)
    rep = maslov_index(const, moving, strict=False)
    inner = [c for c in rep.crossings if 0.0 < c.time < 1.0]
    assert len(inner) == 1 and not inner[0].regular
    assert inner[0].time == pytest.approx(0.5, abs=1e-4)


def test_irregular_list_leaves_the_winding_as_the_value():
    # the line touches L1 at t = 0.5 and turns back: no net crossing,
    # while the flagged form still carries a signature
    moving = _angle_path(lambda t: (t - 0.5) ** 2)
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    rep = maslov_index(const, moving, strict=False)
    assert rep.value == HalfInt(0)
    inner = [c for c in rep.crossings if 0.0 < c.time < 1.0]
    assert len(inner) == 1 and not inner[0].regular and inner[0].signature != 0


def test_colliding_crossings_are_both_listed():
    # two transversal crossings 2e-4 apart inside one sample cell: the
    # scan shows one, and the winding (0) makes the search find the other
    moving = _angle_path(lambda t: (t - 0.5) ** 2 - 1e-8, samples=257)
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    rep = maslov_index(const, moving)
    assert rep.value == HalfInt(0)
    assert [c.time for c in rep.crossings] == pytest.approx([0.4999, 0.5001], abs=1e-6)
    assert [c.signature for c in rep.crossings] == [1, -1]
    assert all(c.regular and c.dim == 1 for c in rep.crossings)


def test_jump_between_samples_raises_undersampled():
    # a frame that jumps has no winding to count: the scan refines the
    # jumping cell down to its floor and names the step left there
    moving = _angle_path(lambda t: 0.3 if t < 0.40031 else 2.0)
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    with pytest.raises(Undersampled, match=r"steps by 2\.88 rad on \[0\.40030998, 0\.40031004\]"):
        maslov_index(const, moving)


def test_list_that_overcounts_the_winding_raises():
    # under tol.rank = 0.1 the crossing at 2 pi / 6.33 = 0.9926 and the
    # end t = 1 are both intersections, so the list counts one twice
    cfg = Config(tol_rank=0.1)
    path = rotation_path(6.33, config=cfg)
    with pytest.raises(CrossingUnresolved, match="sum to 8 .* winding counts 4"):
        conley_zehnder_report(path, config=cfg)
    with pytest.raises(CrossingUnresolved, match="sum to 4 .* winding counts 2"):
        brake_maslov_report(path, config=cfg)


def test_pair_index_validates_intervals_and_forms():
    const = LagrangianPath.constant(lagrangian_l1(1), (0.0, 1.0))
    other = LagrangianPath.constant(lagrangian_l1(1), (0.0, 2.0))
    with pytest.raises(ValidationError):
        maslov_index(const, other)
    const4 = LagrangianPath.constant(lagrangian_l1(2), (0.0, 1.0))
    with pytest.raises(ValidationError):
        maslov_index(const, const4)


def test_index_routines_need_based_paths():
    path = rotation_path(1.0, samples=65).restricted(0.25, 0.75)
    with pytest.raises(ValidationError):
        conley_zehnder(path)
    with pytest.raises(ValidationError):
        brake_maslov(path)
    with pytest.raises(ValidationError):
        brake_maslov(rotation_path(1.0, samples=65), k=3)
    with pytest.raises(ValidationError):
        brake_maslov_report(rotation_path(1.0, samples=65), k=3)
    # based, but on an interval that does not start at 0
    base = rotation_path(1.0)
    times = np.linspace(0.5, 1.5, 65)
    late = SymplecticPath(times, np.stack([base.value_at(t - 0.5) for t in times]),
                          based=True)
    for index in (brake_maslov, brake_maslov_report):
        with pytest.raises(ValidationError):
            index(late)


def test_brake_index_second_lagrangian():
    # mu2 uses L2 = R^n x {0}; for rotations it matches mu1 by symmetry
    for omega in (math.pi, 3 * math.pi, 5.0):
        p = rotation_path(omega, samples=1024)
        assert brake_maslov(p, k=2) == brake_maslov(p, k=1)


def test_conley_zehnder_report_carries_endpoint_nullities():
    rep = conley_zehnder_report(rotation_path(2 * math.pi, samples=1024))
    assert rep.endpoint_nullities == (2, 2)
    rep2 = conley_zehnder_report(rotation_path(1.0, samples=257))
    assert rep2.endpoint_nullities == (2, 0)


def test_lagrangian_path_graph_dimensions():
    path = rotation_path(1.0, n=2, samples=65)
    graph = LagrangianPath.graph(path)
    assert graph.frame_at(0.3).shape == (8, 4)
    proj = graph.projector_at(0.3)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_frames_equal_stacked_frame_at():
    exact = rotation_path(3.0, n=2, samples=33)
    sampled = SymplecticPath(exact.times, exact.values, based=True)
    lag = lagrangian_l1(2)
    moving = LagrangianPath.from_symplectic(sampled, lag)
    graph = LagrangianPath.graph(sampled)
    paths = [
        LagrangianPath.constant(lag, (0.0, 1.0)),
        moving, LagrangianPath.from_symplectic(exact, lag),
        graph, LagrangianPath.graph(exact),
        moving.restricted(0.2, 0.7), graph.restricted(0.1, 0.6),
        moving.reversed(), graph.reversed().restricted(0.3, 0.9),
        _angle_path(lambda t: 3.0 * t, samples=33),
        _angle_path(lambda t: 3.0 * t, samples=33).reversed(),
    ]
    for path in paths:
        inside = path.times[:-1:8] + 0.37 * np.diff(path.times)[::8]
        ts = np.concatenate([path.times, inside])
        want = np.stack([path.frame_at(t) for t in ts])
        assert np.array_equal(path.frames(ts), want)


def test_frame_at_keeps_its_per_time_construction():
    exact = rotation_path(3.0, n=2, samples=33)
    sampled = SymplecticPath(exact.times, exact.values, based=True)
    lag = lagrangian_l1(2)
    moving = LagrangianPath.from_symplectic(sampled, lag)
    graph = LagrangianPath.graph(sampled)
    for t in (0.0, sampled.times[5], 0.4321, 1.0):
        value = sampled.value_at(t)
        assert np.array_equal(moving.frame_at(t), np.linalg.qr(value @ lag.frame)[0])
        stacked = np.vstack([np.eye(4), value])
        assert np.array_equal(graph.frame_at(t), np.linalg.qr(stacked)[0])


def _two_rate_path(turns, rel, mix=0.0, samples=1025):
    """U^T diag(R(w1 t), R(w2 t)) U on [0, 1], w2 = w1 (1 + rel).

    Each plane meets the diagonal where its own rotation closes, so the
    crossings come in pairs a relative distance ``rel`` apart: closer than
    one grid cell.  U = exp(mix J0 K), K mixing the planes, is symplectic
    and orthogonal, so it changes no index.
    """
    w = [2 * math.pi * turns, 2 * math.pi * turns * (1 + rel)]
    k = np.zeros((4, 4))
    k[0, 1] = k[1, 0] = k[2, 3] = k[3, 2] = 1.0
    u = scipy.linalg.expm(mix * standard_symplectic(2) @ k)

    def at(t):
        m = np.zeros((4, 4))
        for i, wi in enumerate(w):
            c, s = math.cos(wi * t), math.sin(wi * t)
            m[i, i], m[i, i + 2], m[i + 2, i], m[i + 2, i + 2] = c, -s, s, c
        return u.T @ m @ u

    times = np.linspace(0.0, 1.0, samples)
    values = np.stack([at(t) for t in times])
    values[0] = np.eye(4)
    return SymplecticPath(times, values, based=True, evaluator=at), w


@pytest.mark.parametrize("turns, rel, mix", [
    (1.3, 1e-4, 0.0), (2.2, 4e-4, 0.0), (2.7, 2e-4, 0.7), (1.6, 1e-4, 0.3),
    (2.0, 2e-4, 0.0),  # the first plane closes exactly at the end
])
def test_crossings_sharing_a_cell_are_all_counted(turns, rel, mix):
    path, w = _two_rate_path(turns, rel, mix)
    turns_of = [wi / (2 * math.pi) for wi in w]
    floors = [math.floor(x) for x in turns_of]
    # cz takes the upper value 2k + 1 at a full turn; mu1 is k there
    rep = conley_zehnder_report(path)
    assert rep.value == HalfInt.from_int(sum(2 * f + 1 for f in floors))
    roots = sorted(2 * math.pi * j / wi for wi, f in zip(w, floors)
                   for j in range(1, f + 1))
    interior = sorted(c.time for c in rep.crossings if c.time > 0)
    assert interior == pytest.approx(roots, abs=1e-7)
    mu1 = brake_maslov_report(path)
    assert mu1.value == HalfInt(sum(2 * f + (x != f) for x, f in zip(turns_of, floors)))


# Two brake-symmetric loops diag(w, w) + P(t) with sup |P| below the
# distance of each w_i from 2 pi Z, so cz is that of the constant loop
# (Weyl's inequality).  P splits each dim-2 crossing of diag(w, w) into
# two dim-1 crossings less than two grid cells apart.
_SPLIT_LOOPS = [
    (2048, [8.278, 4.846], {
        "cos": {1: [[0.131, -0.043, 0.0, 0.0], [-0.043, 0.101, 0.0, 0.0],
                    [0.0, 0.0, -0.124, -0.011], [0.0, 0.0, -0.011, -0.109]],
                2: [[-0.097, -0.12, 0.0, 0.0], [-0.12, 0.001, 0.0, 0.0],
                    [0.0, 0.0, 0.029, -0.036], [0.0, 0.0, -0.036, 0.056]]},
        "sin": {1: [[0.0, 0.0, -0.017, 0.047], [0.0, 0.0, 0.04, 0.12],
                    [-0.017, 0.04, 0.0, 0.0], [0.047, 0.12, 0.0, 0.0]],
                2: [[0.0, 0.0, 0.04, 0.104], [0.0, 0.0, 0.129, 0.115],
                    [0.04, 0.129, 0.0, 0.0], [0.104, 0.115, 0.0, 0.0]]}}),
    (4096, [4.843, 11.142], {
        "cos": {1: [[-0.035, -0.077, 0.0, 0.0], [-0.077, 0.086, 0.0, 0.0],
                    [0.0, 0.0, 0.028, 0.043], [0.0, 0.0, 0.043, 0.039]],
                2: [[0.047, -0.042, 0.0, 0.0], [-0.042, -0.007, 0.0, 0.0],
                    [0.0, 0.0, 0.075, 0.048], [0.0, 0.0, 0.048, 0.056]]},
        "sin": {1: [[0.0, 0.0, -0.088, 0.068], [0.0, 0.0, 0.048, -0.056],
                    [-0.088, 0.048, 0.0, 0.0], [0.068, -0.056, 0.0, 0.0]],
                2: [[0.0, 0.0, -0.002, 0.046], [0.0, 0.0, 0.069, 0.02],
                    [-0.002, 0.069, 0.0, 0.0], [0.046, 0.02, 0.0, 0.0]]}}),
]


@pytest.mark.parametrize("steps, w, terms", _SPLIT_LOOPS)
def test_split_crossings_of_a_perturbed_loop_are_counted(steps, w, terms):
    parts = {k: {order: np.array(m) for order, m in v.items()} for k, v in terms.items()}
    loop = SymmetricLoop.fourier(np.diag(w + w), **parts)
    path = fundamental_solution(loop, (0.0, 1.0), steps=steps)
    want = sum(2 * math.floor(wi / (2 * math.pi)) + 1 for wi in w)
    rep = conley_zehnder_report(path)
    assert rep.value == HalfInt.from_int(want)
    # a plane with floor f crosses 2 f times, once per split half
    assert sum(c.dim for c in rep.crossings if c.time > 0) == want - 2


def _sampled_rotation(omega, samples):
    """R(omega t) given only by its samples on [0, 1], as a CLI document is."""
    times = np.linspace(0.0, 1.0, samples)
    values = np.stack([[[math.cos(omega * t), -math.sin(omega * t)],
                        [math.sin(omega * t), math.cos(omega * t)]] for t in times])
    return SymplecticPath(times, values, based=True)


@pytest.mark.parametrize("omega, samples", [(40.0, 17), (20.0, 9)])
def test_coarse_samples_are_refined_before_counting(omega, samples):
    # 2.5 rad per sample cell: the interpolated path is still R(omega t),
    # but the scan sees only every other crossing until it is refined.
    # For cz, arg det of the Souriau map turns by 5 rad per cell, which
    # its samples show as -1.28: only the principal angles reveal it
    path = _sampled_rotation(omega, samples)
    k = math.floor(omega / (2 * math.pi))
    assert brake_maslov(path) == HalfInt(2 * k + 1)
    assert conley_zehnder(path) == HalfInt.from_int(2 * k + 1)


# The endpoint loop of a spectral-flow benchmark job (n = 1, turns 2.774),
# rounded to five decimals: each crossing of diag(w, w) splits into two
# of the same sign about 4e-4 apart, inside one sample cell.
_COLLIDING_LOOP = {
    "const": [[17.43085, 0.0], [0.0, 17.43085]],
    "cos": {1: [[0.041, 0.0], [0.0, 0.08124]], 2: [[0.15128, 0.0], [0.0, 0.13352]]},
    "sin": {1: [[0.0, -0.15975], [-0.15975, 0.0]], 2: [[0.0, -0.08043], [-0.08043, 0.0]]},
}


def test_same_sign_pair_in_one_cell_is_counted():
    parts = {k: {order: np.array(m) for order, m in _COLLIDING_LOOP[k].items()}
             for k in ("cos", "sin")}
    loop = SymmetricLoop.fourier(np.array(_COLLIDING_LOOP["const"]), **parts)
    rep = conley_zehnder_report(fundamental_solution(loop, (0.0, 1.0), steps=2048))
    assert rep.value == HalfInt.from_int(5)
    interior = [c for c in rep.crossings if c.time > 0]
    assert [(c.dim, c.signature) for c in interior] == [(1, 1)] * 4
