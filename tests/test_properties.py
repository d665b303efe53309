"""Algebraic laws of the index theory, checked on drawn inputs.

Only rotation paths are drawn: their crossings are known in closed form,
so every drawn input can be kept a margin away from degenerate angles.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brakeindex.core import HalfInt, diagonal_unitary_loop, lagrangian_l1, rotation_path
from brakeindex.indices import (
    LagrangianPath,
    brake_maslov,
    conley_zehnder,
    cz_of_product,
    maslov_index,
    mu1_of_product,
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
