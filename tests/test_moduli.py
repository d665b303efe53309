"""Moduli dimension formulas, iterates, and good/bad classification."""

import math

import numpy as np
import pytest

from brakeindex.core import HalfInt, SymplecticPath, hyperbolic_path, rotation_path
from brakeindex.errors import DegenerateIterate, DegenerateOrbit, ValidationError
from brakeindex.moduli import (
    BRAKE,
    PAIR,
    ModuliSpec,
    OrbitRecord,
    classify_good_bad,
    fredholm_index,
    iterate_path,
    orbit_degree,
    virtual_dimension,
)


def _brake(mu1, nullity=(0, 0, 0)):
    return OrbitRecord(BRAKE, mu1=HalfInt.coerce(mu1), nullity=nullity)


def _pair(mu_cz, nullity=(0, 0, 0)):
    return OrbitRecord(PAIR, mu_cz=HalfInt.coerce(mu_cz), nullity=nullity)


def test_fredholm_index_by_hand():
    # n=2, genus 0, one positive and one negative brake orbit: the Euler
    # term vanishes and the index is the mu difference plus one
    spec = ModuliSpec(2, 0,
                      positive_brake=(_brake(HalfInt(3)),),
                      negative_brake=(_brake(HalfInt(1)),))
    assert fredholm_index(spec) == HalfInt.from_int(2)
    # adding a twist moves the index by its first Chern number
    assert fredholm_index(spec, c1=2) == HalfInt.from_int(4)


def test_fredholm_index_with_pairs():
    spec = ModuliSpec(1, 0,
                      positive_pairs=(_pair(3),),
                      negative_pairs=(_pair(1),))
    # chi term: (n/2)(2 - 2t+ - 2t-) = 1/2 * (-2) = -1; sums: 2;
    # puncture half-count (2+2)/2 = 2
    assert fredholm_index(spec) == HalfInt.from_int(3)


def test_virtual_dimension_routes_agree():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        genus = int(rng.integers(0, 3))
        mk = lambda: tuple(_brake(HalfInt(int(rng.integers(-6, 7))))
                           for _ in range(int(rng.integers(0, 3))))
        mkp = lambda: tuple(_pair(int(rng.integers(-4, 5)))
                            for _ in range(int(rng.integers(0, 3))))
        spec = ModuliSpec(n, genus, positive_brake=mk(), negative_brake=mk(),
                          positive_pairs=mkp(), negative_pairs=mkp())
        c1 = int(rng.integers(-2, 3))
        report = virtual_dimension(spec, c1=c1)
        sp, sm, tp, tm = spec.counts
        s, t = sp + sm, tp + tm
        closed = HalfInt((n - 3) * (2 - 2 * genus - s - 2 * t))
        for rec in spec.positive_brake:
            closed = closed + rec.mu1
        for rec in spec.negative_brake:
            closed = closed - rec.mu1
        for rec in spec.positive_pairs:
            closed = closed + rec.mu_cz
        for rec in spec.negative_pairs:
            closed = closed - rec.mu_cz
        closed = closed + c1
        assert report.virtual == closed
        assert report.integer_valued == report.virtual.is_integer


def test_virtual_dimension_flags_degenerate_input():
    good = ModuliSpec(1, 0, positive_brake=(_brake(1),))
    assert not virtual_dimension(good).degenerate_input
    bad = ModuliSpec(1, 0, positive_brake=(_brake(1, nullity=(1, 1, 0)),))
    assert virtual_dimension(bad).degenerate_input


def test_stability_dimensions():
    # genus 0, one puncture: a 2-dim automorphism group and no moduli
    spec = ModuliSpec(1, 0, positive_brake=(_brake(1),))
    rep = virtual_dimension(spec)
    assert rep.teichmuller == 0
    assert rep.automorphisms == 2
    # a stable domain: genus 2 closed surface has 3g-3 = 3 complex moduli
    spec2 = ModuliSpec(1, 2, positive_brake=(_brake(1),))
    rep2 = virtual_dimension(spec2)
    assert rep2.teichmuller == 3 * 2 + 1 - 3
    assert rep2.automorphisms == 0


def test_orbit_degree_formulas():
    assert orbit_degree(_brake(HalfInt(3)), 3) == HalfInt(3)  # mu1 + 0
    assert orbit_degree(_brake(HalfInt(3)), 5) == HalfInt(3) + 1
    assert orbit_degree(_pair(2), 3) == HalfInt.from_int(2)
    assert orbit_degree(_pair(2), 4) == HalfInt.from_int(3)


def test_orbit_record_validation():
    with pytest.raises(ValidationError):
        OrbitRecord(BRAKE, mu_cz=HalfInt(2))
    with pytest.raises(ValidationError):
        OrbitRecord(PAIR, mu1=HalfInt(2))
    with pytest.raises(ValidationError):
        OrbitRecord("loop", mu1=HalfInt(2))
    with pytest.raises(ValidationError):
        OrbitRecord(BRAKE, mu1=HalfInt(2), multiplicity=0)


def test_iterate_path_matches_monodromy_powers():
    base = rotation_path(1.1, samples=257)
    it3 = iterate_path(base, 3)
    assert (it3.a, it3.b) == (0.0, 3.0)
    mono = base.end_value()
    want = mono @ mono @ mono
    assert np.max(np.abs(it3.end_value() - want)) < 1e-9
    # interior consistency: gamma(1.4) = gamma(0.4) gamma(1)
    lhs = it3.value_at(1.4)
    rhs = base.value_at(0.4) @ mono
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("tau", [1.0, 0.7])
def test_iterate_values_equal_stacked_calls(tau):
    exact = rotation_path(2.3, interval=(0.0, tau), samples=17)
    sampled = SymplecticPath(exact.times, exact.values, based=True)
    for base in (exact, sampled):
        for m in (2, 3, 4):
            it = iterate_path(base, m)
            # every node, a point inside each cell, and the cover boundaries
            inside = it.times[:-1] + 0.41 * np.diff(it.times)
            ts = np.concatenate([it.times, inside, [j * tau for j in range(m + 1)]])
            want = np.stack([it.value_at(t) for t in ts])
            assert np.array_equal(it.values_at(ts), want)


def test_iterate_path_validation():
    base = rotation_path(1.0, samples=65)
    with pytest.raises(ValidationError):
        iterate_path(base, 0)
    with pytest.raises(ValidationError):
        iterate_path(base.restricted(0.2, 0.8), 2)


def test_classification_elliptic_all_good():
    rows = classify_good_bad(rotation_path(math.pi, samples=513), 1, 4)
    assert [r.cz for r in rows] == [HalfInt.from_int(v) for v in (1, 3, 3, 5)]
    assert all(r.verdict == "good" for r in rows)
    # nearby nonresonant angles stay good and nondegenerate
    for omega in (math.pi + 0.1, math.pi - 0.1):
        rows = classify_good_bad(rotation_path(omega, samples=513), 1, 4)
        assert all(r.verdict == "good" and not r.degenerate for r in rows)


def test_classification_negative_hyperbolic_even_covers_bad():
    rows = classify_good_bad(hyperbolic_path(-2.0, samples=513), 1, 4)
    assert [r.cz for r in rows] == [HalfInt.from_int(m) for m in (1, 2, 3, 4)]
    assert [r.verdict for r in rows] == ["good", "bad", "good", "bad"]
    assert [r.degree for r in rows] == [HalfInt.from_int(m - 2) for m in (1, 2, 3, 4)]


def test_classification_strict_rejects_degenerate_orbit():
    resonant = rotation_path(2 * math.pi, samples=513)
    with pytest.raises(DegenerateOrbit):
        classify_good_bad(resonant, 1, 2, strict=True)
    rows = classify_good_bad(resonant, 1, 2)
    assert rows[0].degenerate


def test_classification_strict_rejects_degenerate_iterate():
    # nondegenerate orbit whose second cover is resonant
    path = rotation_path(math.pi, samples=513)
    with pytest.raises(DegenerateIterate):
        classify_good_bad(path, 1, 2, strict=True)


def test_moduli_spec_counts():
    spec = ModuliSpec(2, 1,
                      positive_brake=(_brake(1), _brake(2)),
                      negative_pairs=(_pair(1),))
    assert spec.counts == (2, 0, 0, 1)
    with pytest.raises(ValidationError):
        ModuliSpec(0, 0)
    with pytest.raises(ValidationError):
        ModuliSpec(1, -1)
    with pytest.raises(ValidationError):
        ModuliSpec(1, 0, positive_brake=(_pair(1),))
