"""Algebraic laws of the index theory, checked on drawn inputs.

Rotation paths and perturbed diagonal loops are drawn: the indices of
both are known in closed form, so every drawn input can be kept a margin
away from degenerate angles, or put exactly on one.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brakeindex.asymptotic import (
    BRAKE,
    FULL,
    AsymptoticOperator,
    SymmetricLoop,
    blend_family,
    kernel_dimension,
)
from brakeindex.core import (
    HalfInt,
    _symplectic_residuals,
    diagonal_unitary_loop,
    fundamental_solution,
    lagrangian_l1,
    rotation_path,
)
from brakeindex.indices import (
    LagrangianPath,
    brake_maslov,
    conley_zehnder,
    cz_of_product,
    maslov_index,
    mu1_of_product,
    nullities,
)

doubled = st.integers(min_value=-10**6, max_value=10**6)
# rotation rates up to four full turns either way
omegas = st.floats(min_value=-8 * math.pi, max_value=8 * math.pi,
                   allow_nan=False, allow_infinity=False)


def _frac(h):
    return Fraction(h.doubled, 2)


def _off_integer(x, margin):
    return abs(x - round(x)) > margin


@given(doubled, doubled)
def test_halfint_matches_fractions(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert _frac(x + y) == _frac(x) + _frac(y)
    assert _frac(x - y) == _frac(x) - _frac(y)
    assert _frac(-x) == -_frac(x)
    assert (x < y) == (_frac(x) < _frac(y))
    assert (x <= y) == (_frac(x) <= _frac(y))
    assert (x == y) == (a == b)
    if a % 2:
        with pytest.raises(ValueError):
            int(x)
    else:
        assert int(x) == a // 2


@settings(deadline=None, max_examples=12)
@given(omegas, st.floats(min_value=0.1, max_value=0.9))
def test_pair_index_additive_and_odd_under_reversal(omega, split):
    # R(omega t) L1 meets L1 where omega t is a multiple of pi: keep the
    # split point and the far endpoint away from those times
    assume(_off_integer(omega * split / math.pi, 0.05))
    assume(_off_integer(omega / math.pi, 0.05))
    lag = lagrangian_l1(1)
    moving = LagrangianPath.from_symplectic(rotation_path(omega, samples=257), lag)
    whole = maslov_index(LagrangianPath.constant(lag, (0.0, 1.0)), moving).value
    left = maslov_index(LagrangianPath.constant(lag, (0.0, split)),
                        moving.restricted(0.0, split)).value
    right = maslov_index(LagrangianPath.constant(lag, (split, 1.0)),
                         moving.restricted(split, 1.0)).value
    assert left + right == whole
    back = maslov_index(LagrangianPath.constant(lag, (0.0, 1.0)),
                        moving.reversed()).value
    assert back == -whole


@settings(deadline=None, max_examples=8)
@given(omegas, st.integers(min_value=-2, max_value=2))
def test_loop_shift_laws(omega, k):
    # cz degenerates at omega in 2 pi Z, mu1 at omega in 2 pi Z too (the
    # half path ends at omega / 2 in pi Z); the loop shifts omega by 2 pi k
    assume(_off_integer(omega / (2 * math.pi), 0.05))
    path = rotation_path(omega, samples=513)
    loop = diagonal_unitary_loop((k,))
    assert cz_of_product(loop, path) == conley_zehnder(path) + HalfInt.from_int(2 * k)
    assert mu1_of_product(loop, path) == brake_maslov(path) + HalfInt.from_int(k)


# entries on a 1e-3 grid in [-1, 1]: no subnormal draw can overflow the scale
unit = st.integers(min_value=-1000, max_value=1000).map(lambda k: k / 1000)


def _even_sym(draw, n):
    """Symmetric, commuting with N0 = diag(-I, I): two symmetric blocks."""
    out = np.zeros((2 * n, 2 * n))
    for block in (slice(0, n), slice(n, 2 * n)):
        m = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
        out[block, block] = 0.5 * (m + m.T)
    return out


def _odd_sym(draw, n):
    """Symmetric, anticommuting with N0."""
    c = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = c
    out[n:, :n] = c.T
    return out


@st.composite
def perturbed_loops(draw):
    """(loop, turns, degenerate plane or None) for diag(w, w) + P(t).

    w_i = 2 pi turns_i with turns in [-2, 3), at least 0.05 from an
    integer.  P has cos terms of orders 1 and 2 commuting with N0 and sin
    terms anticommuting with it, so the loop is brake-symmetric; the sum
    of their norms, a bound on sup |P|, is 30 to 60 percent of the
    smallest distance of a w_i from 2 pi Z, so by Weyl's inequality the
    indices are those of diag(w, w).  Sometimes plane 0 sits exactly on
    2 pi k instead, and P is zero.
    """
    n = draw(st.integers(min_value=1, max_value=2))
    turns = [draw(st.integers(min_value=-2, max_value=2))
             + draw(st.floats(min_value=0.05, max_value=0.95)) for _ in range(n)]
    degenerate = draw(st.sampled_from([None, None, None, 0]))
    if degenerate is not None:
        turns[0] = float(draw(st.sampled_from([-1, 1, 2])))
    w = [2 * math.pi * t for t in turns]
    terms = {"cos": {1: _even_sym(draw, n), 2: _even_sym(draw, n)},
             "sin": {1: _odd_sym(draw, n), 2: _odd_sym(draw, n)}}
    total = sum(np.linalg.norm(m, 2) for part in terms.values() for m in part.values())
    gap = 2 * math.pi * min(abs(t - round(t)) for t in turns)
    scale = draw(st.floats(min_value=0.3, max_value=0.6)) * gap / total if total else 0.0
    parts = {k: {order: scale * m for order, m in v.items()} for k, v in terms.items()}
    return SymmetricLoop.fourier(np.diag(w + w), **parts), turns, degenerate


@settings(deadline=None, max_examples=30)
@given(perturbed_loops())
def test_perturbed_loops_keep_the_closed_form_indices(drawn):
    # a plane with turns t off the integers has cz 2 floor(t) + 1 and mu1
    # = mu2 = floor(t) + 1/2; on 2 pi k it has cz 2k + 1 (upper value),
    # mu1 = mu2 = k and nullities (2, 1, 1).  The kernels of the
    # asymptotic operator on the full and brake domains are nu and nu1
    loop, turns, degenerate = drawn
    path = fundamental_solution(loop, (0.0, 1.0), steps=2048)
    floors = [round(t) if i == degenerate else math.floor(t) for i, t in enumerate(turns)]
    assert conley_zehnder(path) == HalfInt.from_int(sum(2 * k + 1 for k in floors))
    mu = HalfInt(sum(2 * k + (i != degenerate) for i, k in enumerate(floors)))
    assert brake_maslov(path) == mu
    assert brake_maslov(path, k=2) == mu
    nu, nu1, nu2 = nullities(path)
    assert nu1 + nu2 == nu
    assert (nu, nu1, nu2) == ((0, 0, 0) if degenerate is None else (2, 1, 1))
    kernels = [kernel_dimension(AsymptoticOperator(loop, domain), K=16)
               for domain in (FULL, BRAKE)]
    assert kernels == [nu, nu1]


@st.composite
def fourier_loops(draw, n):
    """A Fourier loop of orders up to 2 with entries in [-1, 1]; when drawn
    non-symmetric it gets cos terms anticommuting with N0 and sin terms
    commuting with it, which break the brake relation."""
    symmetric = draw(st.booleans())
    const = _even_sym(draw, n)
    cos = {k: _even_sym(draw, n) for k in (1, 2)}
    sin = {k: _odd_sym(draw, n) for k in (1, 2)}
    if not symmetric:
        const = const + _odd_sym(draw, n)
        cos[1] = cos[1] + _odd_sym(draw, n)
        sin[2] = sin[2] + _even_sym(draw, n)
    return SymmetricLoop.fourier(const, cos=cos, sin=sin, tau=1.5)


@st.composite
def loop_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    return draw(fourier_loops(n)), draw(fourier_loops(n))


@settings(deadline=None, max_examples=40)
@given(loop_pairs(), st.floats(min_value=-1.0, max_value=1.0))
def test_brake_residual_of_a_blend_is_at_most_the_blend_of_residuals(pair, s):
    # the residual ||N0 S(-t) N0 - S(t)|| is a seminorm of S, so brake
    # symmetric endpoints make the whole family brake symmetric and the
    # spectral flow checks the endpoints only
    minus, plus = pair
    family = blend_family(minus, plus)
    beta = family.beta(s)
    blend = family.operator_at(s).loop
    bound = (1.0 - beta) * minus.brake_residual() + beta * plus.brake_residual()
    assert blend.brake_residual() <= bound + 1e-14


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=2).flatmap(fourier_loops),
       st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                          st.floats(min_value=0.01, max_value=0.99)),
                min_size=1, max_size=6))
def test_magnus_samples_stay_symplectic_without_projection(loop, offsets):
    # every step is the exponential of a Hamiltonian matrix, so the
    # samples keep M^T J0 M = J0 to rounding with no projection; off the
    # nodes the batch evaluator gives what a call per time gives
    path = fundamental_solution(loop, (0.0, 1.0), steps=256)
    assert np.max(_symplectic_residuals(path.values)) <= 1e-12
    times = path.times
    ts = np.array([times[k] + frac * (times[k + 1] - times[k]) for k, frac in offsets])
    want = np.stack([path.value_at(t) for t in ts])
    assert np.array_equal(path.values_at(ts), want)
