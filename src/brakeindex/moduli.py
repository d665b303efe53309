"""Dimension bookkeeping for moduli of brake-symmetric curves.

All index arithmetic is exact over half-integers.  The virtual dimension
is computed twice, once as Fredholm index + Teichmueller - automorphisms
and once by the closed combined formula, and the two routes are required
to agree identically.

Orbit gradings: a brake orbit q has degree mu1(q) + (n-3)/2; a Reeb
orbit pair p (one record for the pair) has degree mu_CZ(p) + (n-3).
An even cover of an orbit is a bad orbit exactly when the parity of its
degree disagrees with the parity of the odd covers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULT, Config
from .core import HalfInt, SymplecticPath
from .errors import DegenerateIterate, DegenerateOrbit, ValidationError
from .indices import conley_zehnder_report, nullities

BRAKE = "brake"
PAIR = "pair"


@dataclasses.dataclass(frozen=True)
class OrbitRecord:
    """Index data for one puncture: a brake orbit or a Reeb orbit pair."""

    kind: str
    label: str = ""
    mu1: HalfInt | None = None
    mu_cz: HalfInt | None = None
    nullity: tuple = (0, 0, 0)
    multiplicity: int = 1
    period: float = 1.0

    def __post_init__(self):
        if self.kind not in (BRAKE, PAIR):
            raise ValidationError("kind must be 'brake' or 'pair'")
        if self.kind == BRAKE:
            if self.mu1 is None or self.mu_cz is not None:
                raise ValidationError(
                    f"kind/index mismatch for {self.label!r}: brake records "
                    "carry mu1 only"
                )
            object.__setattr__(self, "mu1", HalfInt.coerce(self.mu1))
        else:
            if self.mu_cz is None or self.mu1 is not None:
                raise ValidationError(
                    f"kind/index mismatch for {self.label!r}: pair records "
                    "carry mu_cz only"
                )
            object.__setattr__(self, "mu_cz", HalfInt.coerce(self.mu_cz))
        if self.multiplicity < 1:
            raise ValidationError("multiplicity must be >= 1")

    @property
    def index_value(self) -> HalfInt:
        return self.mu1 if self.kind == BRAKE else self.mu_cz


@dataclasses.dataclass(frozen=True)
class ModuliSpec:
    """Counts and orbit data of a moduli problem.

    Pair records each stand for one conjugate pair of punctures; their
    count is the t of the dimension formulas.
    """

    n: int
    genus: int
    positive_brake: tuple = ()
    negative_brake: tuple = ()
    positive_pairs: tuple = ()
    negative_pairs: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.genus < 0:
            raise ValidationError("genus must be >= 0")
        for name in ("positive_brake", "negative_brake",
                     "positive_pairs", "negative_pairs"):
            records = tuple(getattr(self, name))
            object.__setattr__(self, name, records)
            want = BRAKE if "brake" in name else PAIR
            for rec in records:
                if rec.kind != want:
                    raise ValidationError(
                        f"{name} holds a record of kind {rec.kind!r}"
                    )

    @property
    def counts(self):
        """(s_plus, s_minus, t_plus, t_minus)."""
        return (len(self.positive_brake), len(self.negative_brake),
                len(self.positive_pairs), len(self.negative_pairs))


def _index_sums(spec: ModuliSpec) -> HalfInt:
    total = HalfInt(0)
    for rec in spec.positive_brake:
        total = total + rec.mu1
    for rec in spec.negative_brake:
        total = total - rec.mu1
    for rec in spec.positive_pairs:
        total = total + rec.mu_cz
    for rec in spec.negative_pairs:
        total = total - rec.mu_cz
    return total


def fredholm_index(spec: ModuliSpec, c1=0) -> HalfInt:
    """Index of the fully broken-symmetric linearization.

    (n/2)(2 - 2g - s+ - s- - 2t+ - 2t-) + index sums + N/2 + c1, with
    N = s+ + s- + 2t+ + 2t- the puncture count.
    """
    sp, sm, tp, tm = spec.counts
    chi_term = 2 - 2 * spec.genus - sp - sm - 2 * tp - 2 * tm
    punctures = sp + sm + 2 * tp + 2 * tm
    return (HalfInt(spec.n * chi_term) + _index_sums(spec)
            + HalfInt(punctures) + HalfInt.from_int(int(c1)))


def teichmuller_dim(genus, s, t):
    """Real dimension of the symmetric Teichmueller space: 3g + s + 2t - 3
    when positive, else 0."""
    raw = 3 * genus + s + 2 * t - 3
    return max(0, raw)


def aut_dim(genus, s, t):
    """Dimension of the symmetric automorphism group: 3 - 3g - s - 2t when
    the surface is stable in reverse, else 0."""
    raw = 3 - 3 * genus - s - 2 * t
    return max(0, raw)


@dataclasses.dataclass(frozen=True)
class DimensionReport:
    fredholm: HalfInt
    teichmuller: int
    automorphisms: int
    virtual: HalfInt
    integer_valued: bool
    degenerate_input: bool


def virtual_dimension(spec: ModuliSpec, c1=0) -> DimensionReport:
    """Virtual dimension by both routes; the routes must agree identically.

    Route one: Fredholm + Teichmueller - automorphisms.  Route two: the
    combined closed formula with coefficient (n-3)/2 on the Euler term.
    Half-integer outputs are legal (flagged via integer_valued).
    """
    sp, sm, tp, tm = spec.counts
    s = sp + sm
    t = tp + tm
    fred = fredholm_index(spec, c1=c1)
    teich = teichmuller_dim(spec.genus, s, t)
    auts = aut_dim(spec.genus, s, t)
    assembled = fred + teich - auts
    chi_term = 2 - 2 * spec.genus - s - 2 * t
    closed = (HalfInt((spec.n - 3) * chi_term) + _index_sums(spec)
              + HalfInt.from_int(int(c1)))
    if assembled != closed:
        raise AssertionError(
            f"route mismatch: {assembled} (assembled) vs {closed} (closed)"
        )
    degenerate = any(
        any(v != 0 for v in rec.nullity)
        for group in (spec.positive_brake, spec.negative_brake,
                      spec.positive_pairs, spec.negative_pairs)
        for rec in group
    )
    return DimensionReport(
        fredholm=fred,
        teichmuller=teich,
        automorphisms=auts,
        virtual=assembled,
        integer_valued=assembled.is_integer,
        degenerate_input=degenerate,
    )


def orbit_degree(record: OrbitRecord, n) -> HalfInt:
    """Grading of the orbit record: mu1 + (n-3)/2 for brake orbits,
    mu_CZ + (n-3) for Reeb orbit pairs."""
    if record.kind == BRAKE:
        return record.mu1 + HalfInt(n - 3)
    return record.mu_cz + HalfInt.from_int(n - 3)


def iterate_path(path: SymplecticPath, m) -> SymplecticPath:
    """The m-fold iterate on [0, m tau]: gamma_m(t) = gamma(t - j tau) gamma(tau)^j."""
    m = int(m)
    if m < 1:
        raise ValidationError("iterate count must be >= 1")
    if not path.based or abs(path.a) > 1e-12:
        raise ValidationError("iterate needs a based path on [0, tau]")
    if m == 1:
        return path
    tau = path.b
    mono = path.end_value()
    powers = [np.eye(2 * path.n)]
    for _ in range(m):
        powers.append(powers[-1] @ mono)

    times = [path.times]
    values = [path.values]
    for j in range(1, m):
        times.append(path.times[1:] + j * tau)
        values.append(np.einsum("mij,jk->mik", path.values[1:], powers[j]))
    times = np.concatenate(times)
    values = np.concatenate(values)

    base_ev = path.value_at

    def at(t):
        j = min(int(t // tau), m - 1)
        return base_ev(t - j * tau) @ powers[j]

    def stacked(ts):
        # the cover of each time as at(t) takes it, then one batch per cover
        ts = np.asarray(ts, dtype=float)
        covers = np.array([min(int(t // tau), m - 1) for t in ts.tolist()], dtype=int)
        out = np.empty((len(ts), 2 * path.n, 2 * path.n))
        for j in np.unique(covers).tolist():
            mask = covers == j
            out[mask] = path.values_at(ts[mask] - j * tau) @ powers[j]
        return out

    at.values = stacked
    return SymplecticPath(times, values, based=True, evaluator=at,
                          config=path.config)


@dataclasses.dataclass(frozen=True)
class IterateRow:
    multiplicity: int
    cz: HalfInt
    degree: HalfInt
    nullity: int
    degenerate: bool
    verdict: str


def classify_good_bad(path: SymplecticPath, n, max_m, strict=False, *,
                      config: Config = DEFAULT):
    """Grade the iterates of an orbit path and flag bad even covers.

    Each row carries |x^m| = mu_CZ(iterate) + n - 3; an even cover is bad
    exactly when its degree parity disagrees with the odd covers.  With
    ``strict`` a degenerate primitive raises DegenerateOrbit and a
    degenerate iterate raises DegenerateIterate; otherwise degenerate
    rows are flagged and graded with the upper-convention index.
    """
    max_m = int(max_m)
    if max_m < 1:
        raise ValidationError("max_m must be >= 1")
    rows = []
    odd_parity = None
    for m in range(1, max_m + 1):
        it = iterate_path(path, m)
        nu = nullities(it, config=config)[0]
        if nu > 0 and strict:
            if m == 1:
                raise DegenerateOrbit("primitive orbit path is degenerate")
            raise DegenerateIterate(f"iterate m={m} has nullity {nu}")
        rep = conley_zehnder_report(it, config=config)
        degree = rep.value + HalfInt.from_int(n - 3)
        if not degree.is_integer:
            raise ValidationError(
                f"degree {degree} of iterate m={m} is not an integer"
            )
        if m % 2 == 1:
            parity = degree.doubled // 2 % 2
            if odd_parity is None:
                odd_parity = parity
            verdict = "good"
            if parity != odd_parity:
                raise DegenerateOrbit(
                    "odd covers disagree in parity; orbit data is inconsistent"
                )
        else:
            parity = degree.doubled // 2 % 2
            verdict = "bad" if parity != odd_parity else "good"
        rows.append(IterateRow(m, rep.value, degree, nu, nu > 0, verdict))
    return tuple(rows)
