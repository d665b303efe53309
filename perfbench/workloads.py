"""Seeded job generators and their oracles.

A workload is a fixed cycle of job slots.  Each slot fixes what sets a
job's cost (command, path kind, n, domain, K, sample count, crossing
count, system); the seed draws only the continuous parameters inside
the slot (frequencies, energies, weights, perturbations, signs).  So
two seeds run the same mix at nearly the same cost, and the run-to-run
spread of a metric is the program's, not the generator's.

Inputs are refused only by the generator's own closed-form tests:
frequencies are drawn a margin away from resonance (2 pi Z, for every
iterate that is graded), and family endpoints are nondegenerate by
construction.  The program is never run to filter a job.

Every job is checked after it is timed, against an oracle that does
not come from the code path the job exercised:

* rotation paths: mu1 = mu2 = n (1/2 + floor(omega / 2 pi)) and
  cz = n (2 floor(omega / 2 pi) + 1); covers of a rotation are good;
* negative hyperbolic paths: cz = 1, mu1 = mu2 = 1/2, and the m-fold
  cover has cz = m, with even covers bad;
* coefficient loops S(t) = diag(w, w) + P(t) with sup |P(t)| below the
  distance of every w_i from 2 pi Z: the operator -J0 d/dt - S stays
  invertible along t -> diag(w, w) + r P(t), 0 <= r <= 1 (Weyl's
  inequality), so cz, mu1, mu2 and every spectral flow are those of the
  constant diagonal loop, which are the rotation formulas above;
* brake orbits: harmonic period 2 pi, anisotropic period 2 pi / sqrt(w_i)
  with the linearized indices of the constant Hessian, and for the
  quartic system a ``scipy.integrate.solve_ivp`` integration of the
  orbit and of its variational equation.

Cross-layer laws run as well: a Fourier family's brake flow must equal
the mu1 difference, and its full flow the cz difference, of the
endpoint fundamental solutions; a graded loop's kernel dimensions must
equal (nu, nu1).  A law that disagrees while the closed form agrees
with the job's output is reported as a law mismatch: the job's output
is right and the disagreement lies in the layer the law computed with.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from typing import Callable

import numpy as np
import scipy.integrate

from brakeindex import asymptotic, core, indices

TWO_PI = 2.0 * math.pi
# distance of omega / 2 pi from the nearest integer that counts as resonant
MARGIN = 0.05
# spectral-flow families blend over s in [-1, 1] on a 64-point grid
FLOW_GRID_STEP = 2.0 / 63.0


@dataclasses.dataclass
class Job:
    """One user job: a CLI document or a library call, plus its oracles."""

    slot: str
    command: str | None  # CLI subcommand; None for a library job
    payload: str | Callable[[], dict]  # JSON text for the CLI, or the library call
    check: Callable[[dict], list]  # report -> list of mismatches
    law: Callable[[dict], list] | None = None  # cross-layer law, optional


def _floor_turns(omega):
    return math.floor(omega / TWO_PI)


def _cli_job(slot, command, document, check, law=None):
    return Job(slot, command, json.dumps(document), check, law)


def _expect(mismatches, what, got, want):
    if got != want:
        mismatches.append(f"{what}: got {got!r}, want {want!r}")


def _halfint(doubled):
    return {"doubled": int(doubled)}


def _nonresonant_turns(rng, band, lo=0.2, hi=0.8):
    """omega / 2 pi inside [band + lo, band + hi]."""
    return band + float(rng.uniform(lo, hi))


def _distance_to_integer(x):
    return abs(x - round(x))


def _signed(rng, size):
    return size if rng.uniform() < 0.5 else -size


# ---------------------------------------------------------------- loops


def _even_sym(rng, n):
    """Random symmetric matrix commuting with N0 = diag(-I, I)."""
    out = np.zeros((2 * n, 2 * n))
    for block in (slice(0, n), slice(n, 2 * n)):
        m = rng.uniform(-1.0, 1.0, (n, n))
        out[block, block] = 0.5 * (m + m.T)
    return out


def _odd_sym(rng, n):
    """Random symmetric matrix anticommuting with N0."""
    c = rng.uniform(-1.0, 1.0, (n, n))
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = c
    out[n:, :n] = c.T
    return out


def _loop_doc(rng, turns, fourier):
    """Brake-symmetric loop diag(w, w) + P(t), w_i = 2 pi turns_i.

    P has cos and sin terms of orders 1 and 2 (cos terms commute with
    N0, sin terms anticommute, so N0 S(-t) N0 = S(t)); the sum of their
    spectral norms, a bound on sup |P(t)|, is 30 to 60 percent of the
    smallest distance of a w_i from 2 pi Z.
    """
    n = len(turns)
    omegas = [TWO_PI * t for t in turns]
    doc = {"const": np.diag(omegas + omegas).tolist()}
    if fourier:
        gap = TWO_PI * min(_distance_to_integer(t) for t in turns)
        terms = {"cos": {"1": _even_sym(rng, n), "2": _even_sym(rng, n)},
                 "sin": {"1": _odd_sym(rng, n), "2": _odd_sym(rng, n)}}
        total = sum(np.linalg.norm(m, 2) for part in terms.values() for m in part.values())
        scale = float(rng.uniform(0.3, 0.6)) * gap / total
        for part, mats in terms.items():
            doc[part] = {k: (scale * m).tolist() for k, m in mats.items()}
    return doc


def _build_loop(doc):
    const = np.asarray(doc["const"], dtype=float)
    cos = {int(k): np.asarray(m, dtype=float) for k, m in doc.get("cos", {}).items()}
    sin = {int(k): np.asarray(m, dtype=float) for k, m in doc.get("sin", {}).items()}
    return asymptotic.SymmetricLoop.fourier(const, cos=cos, sin=sin)


def _loop_indices(turns, degenerate=()):
    """(cz, mu1) doubled, and (nu, nu1, nu2), of the loop's closed form.

    A plane listed in ``degenerate`` has turns exactly an integer k:
    its path is the rotation by 2 pi k, with cz = 2k + 1 (upper value)
    and mu1 = mu2 = k.
    """
    cz = mu = 0
    nul = [0, 0, 0]
    for i, t in enumerate(turns):
        k = _floor_turns(TWO_PI * t) if i not in degenerate else int(round(t))
        cz += 2 * (2 * k + 1)
        if i in degenerate:
            mu += 2 * k
            nul = [nul[0] + 2, nul[1] + 1, nul[2] + 1]
        else:
            mu += 2 * k + 1
    return cz, mu, tuple(nul)


# ----------------------------------------------------------------- flow

# kind, n, domain, K, per-plane number of resonances crossed
FLOW_SLOTS = (
    ("const", 1, "brake", 16, (1,)),
    ("fourier", 1, "full", 16, (1,)),
    ("const", 2, "full", 16, (1, 1)),
    ("fourier", 2, "brake", 16, (1, 0)),
    ("const", 1, "full", 32, (1,)),
    ("fourier", 1, "brake", 16, (1,)),
    ("fourier", 2, "full", 16, (0, 1)),
)


def _smoothstep_inverse(beta):
    return 0.5 - math.sin(math.asin(1.0 - 2.0 * beta) / 3.0)


def _predicted_crossings(turns_minus, turns_plus):
    """Family parameters s at which a constant diagonal blend is degenerate."""
    out = []
    for a, b in zip(turns_minus, turns_plus):
        lo, hi = sorted((a, b))
        for k in range(math.ceil(lo), math.floor(hi) + 1):
            beta = (k - a) / (b - a)
            out.append(2.0 * _smoothstep_inverse(beta) - 1.0)
    return out


def _flow_job(rng, slot):
    kind, n, domain, K, crossed = slot
    fourier = kind == "fourier"
    start = [int(rng.integers(-1, 2)) for _ in range(n)]
    turns_minus = [_nonresonant_turns(rng, k) for k in start]
    turns_plus = [_nonresonant_turns(rng, k + d) for k, d in zip(start, crossed)]
    if rng.uniform() < 0.5:  # run the family the other way
        turns_minus, turns_plus = turns_plus, turns_minus
    minus = _loop_doc(rng, turns_minus, fourier)
    plus = _loop_doc(rng, turns_plus, fourier)
    per_plane = 2 if domain == "full" else 1
    want = per_plane * sum(_floor_turns(TWO_PI * b) - _floor_turns(TWO_PI * a)
                           for a, b in zip(turns_minus, turns_plus))
    predicted = None if fourier else _predicted_crossings(turns_minus, turns_plus)

    def check(report):
        bad = []
        _expect(bad, "flow", report["flow"], want)
        _expect(bad, "sum of crossing jumps", sum(c["jump"] for c in report["crossings"]), want)
        for c in report["crossings"] if predicted is not None else ():
            if min(abs(c["s"] - s) for s in predicted) > FLOW_GRID_STEP + 1e-9:
                bad.append(f"crossing at s={c['s']:.6f} is not near any of {predicted}")
        return bad

    law = None
    if fourier:
        def law(report):
            ends = [core.fundamental_solution(_build_loop(doc), (0.0, 1.0), steps=2048)
                    for doc in (minus, plus)]
            if domain == "brake":
                diff = indices.brake_maslov(ends[1]) - indices.brake_maslov(ends[0])
                what = "mu1 difference"
            else:
                diff = indices.conley_zehnder(ends[1]) - indices.conley_zehnder(ends[0])
                what = "cz difference"
            if diff != core.HalfInt.from_int(report["flow"]):
                return [f"flow {report['flow']} vs {what} {diff}"]
            return []

    name = f"flow/{kind}-n{n}-{domain}-K{K}"
    doc = {"minus": minus, "plus": plus, "domain": domain, "K": K}
    return _cli_job(name, "spectral-flow", doc, check, law)


# ---------------------------------------------------------------- paths

# command, path kind, n, sampled, samples, rotation band or max_m; an
# odd number of slots keeps the median job inside one slot's cluster
PATHS_SLOTS = (
    ("index", "rotation", 1, False, 1025, 1),
    ("index", "rotation", 2, True, 513, 1),
    ("index", "hyperbolic", 1, True, 2049, None),
    ("classify", "rotation", 1, False, 257, 4),
    ("index", "rotation", 1, True, 2049, 2),
    ("classify", "hyperbolic", 1, True, 513, 4),
    ("classify", "rotation", 2, True, 257, 2),
    ("index", "rotation", 2, False, 2049, 1),
    ("classify", "rotation", 1, True, 1025, 3),
)


def _rotation_matrix(omega, t, n):
    c, s = math.cos(omega * t), math.sin(omega * t)
    eye = np.eye(n)
    return np.block([[c * eye, -s * eye], [s * eye, c * eye]])


def _hyperbolic_matrix(lam, t):
    mag = abs(lam)
    th = math.pi * t
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return rot @ np.diag([mag ** t, mag ** (-t)])


def _path_doc(kind, n, sampled, samples, param):
    # sampled documents are built here, not by the program's path
    # constructors, so the program receives only numbers
    if not sampled:
        if kind == "rotation":
            return {"kind": "rotation", "omega": param, "n": n, "samples": samples}
        return {"kind": "hyperbolic", "lam": param, "samples": samples}
    times = np.linspace(0.0, 1.0, samples)
    if kind == "rotation":
        mats = [_rotation_matrix(param, t, n) for t in times]
    else:
        mats = [_hyperbolic_matrix(param, t) for t in times]
    return {"times": times.tolist(), "matrices": [m.tolist() for m in mats]}


def _rotation_omega(rng, band, covers):
    """Signed omega with |omega| / 2 pi in [band + lo, band + hi], every
    cover m * omega (m <= covers) a margin away from 2 pi Z.

    Index documents take a whole turn band.  Graded covers take turns in
    [0.36, 0.45], where covers 1..4 cross 0, 0, 1 and 1 resonances, so a
    slot's crossing count, hence its cost, does not depend on the seed.
    """
    lo, hi = (0.0, 1.0) if covers == 1 else (0.36, 0.45)
    while True:
        turns = band + float(rng.uniform(lo, hi))
        if all(_distance_to_integer(m * turns) > MARGIN for m in range(1, covers + 1)):
            return _signed(rng, TWO_PI * turns)


def _index_check(kind, n, omega):
    if kind == "rotation":
        k = _floor_turns(omega)
        cz, mu = n * (4 * k + 2), n * (2 * k + 1)
        crossings = _floor_turns(abs(omega)) + 1  # sin(omega t) = 0 on [0, 1/2]
        cz_nullities = [2 * n, 0]
    else:
        cz, mu, crossings, cz_nullities = 2, 1, 1, [2, 0]

    def check(report):
        bad = []
        _expect(bad, "cz", report["cz"]["value"], _halfint(cz))
        _expect(bad, "mu1", report["mu1"]["value"], _halfint(mu))
        _expect(bad, "mu2", report["mu2"]["value"], _halfint(mu))
        _expect(bad, "nullities", report["nullities"], {"nu": 0, "nu1": 0, "nu2": 0})
        _expect(bad, "cz endpoint nullities", report["cz"]["endpoint_nullities"], cz_nullities)
        _expect(bad, "mu1 crossings", len(report["mu1"]["crossings"]), crossings)
        if kind == "rotation":
            # L1 meets R(omega t) L1 where sin(omega t) = 0
            for j, c in enumerate(report["mu1"]["crossings"]):
                if abs(c["time"] - j * math.pi / abs(omega)) > 1e-6:
                    bad.append(f"mu1 crossing {j} at t={c['time']:.9f}")
        return bad

    return check


def _classify_check(kind, n, omega, max_m):
    rows = []
    for m in range(1, max_m + 1):
        if kind == "rotation":
            cz = n * (2 * _floor_turns(m * omega) + 1)
            verdict = "good"
        else:
            cz = m
            verdict = "bad" if m % 2 == 0 else "good"
        rows.append({"multiplicity": m, "cz": _halfint(2 * cz),
                     "degree": _halfint(2 * (cz + n - 3)), "nullity": 0,
                     "degenerate": False, "verdict": verdict})

    def check(report):
        bad = []
        _expect(bad, "rows", report["rows"], rows)
        return bad

    return check


def _paths_job(rng, slot):
    command, kind, n, sampled, samples, extra = slot
    if kind == "rotation":
        covers = extra if command == "classify" else 1
        band = 0 if command == "classify" else extra
        param = _rotation_omega(rng, band, covers)
    else:
        param = -float(rng.uniform(1.5, 4.0))
    path = _path_doc(kind, n, sampled, samples, param)
    name = f"paths/{command}-{kind}-n{n}-{'sampled' if sampled else 'exact'}-{samples}"
    if command == "index":
        return _cli_job(name, "index", {"path": path, "index": "all"},
                        _index_check(kind, n, param))
    return _cli_job(name, "classify", {"path": path, "n": n, "max_m": extra},
                    _classify_check(kind, n, param, extra))


# ---------------------------------------------------------------- orbit

ORBIT_SLOTS = (
    ("harmonic", 1),
    ("loop-degenerate", 2),
    ("aniso", 2),
    ("quartic", 1),
    ("harmonic", 2),
    ("loop-fourier", 2),
)

SHOOTING_STEPS = 256


def grade_loop(doc):
    """The library loop-grading job: indices, nullities and kernels of a loop."""
    loop = _build_loop(doc)
    path = core.fundamental_solution(loop, (0.0, 1.0))
    nu = indices.nullities(path)
    full = asymptotic.AsymptoticOperator(loop, asymptotic.FULL)
    brake = asymptotic.AsymptoticOperator(loop, asymptotic.BRAKE)
    return {
        "cz": indices.conley_zehnder(path).doubled,
        "mu1": indices.brake_maslov(path, k=1).doubled,
        "mu2": indices.brake_maslov(path, k=2).doubled,
        "nullities": list(nu),
        "kernels": [asymptotic.kernel_dimension(full, K=16),
                    asymptotic.kernel_dimension(brake, K=16)],
    }


def _loop_job(rng, kind, n):
    if kind == "loop-degenerate":
        # plane 0 sits exactly on 2 pi k, the others are nonresonant
        turns = [float(rng.choice([-1, 1, 2]))]
        turns += [_nonresonant_turns(rng, int(rng.integers(-1, 2))) for _ in range(n - 1)]
        degenerate = (0,)
    else:
        turns = [_nonresonant_turns(rng, int(rng.integers(-1, 2))) for _ in range(n)]
        degenerate = ()
    doc = _loop_doc(rng, turns, kind == "loop-fourier")
    cz, mu, nul = _loop_indices(turns, degenerate)

    def check(out):
        bad = []
        _expect(bad, "cz doubled", out["cz"], cz)
        _expect(bad, "mu1 doubled", out["mu1"], mu)
        _expect(bad, "mu2 doubled", out["mu2"], mu)
        _expect(bad, "nullities", out["nullities"], list(nul))
        _expect(bad, "kernels", out["kernels"], [nul[0], nul[1]])
        return bad

    def law(out):
        if out["kernels"] != out["nullities"][:2]:
            return [f"kernels {out['kernels']} vs (nu, nu1) {out['nullities'][:2]}"]
        return []

    return Job(f"orbit/{kind}-n{n}", None, functools.partial(grade_loop, doc), check, law)


def _orbit_common(bad, report, energy, period, q_abs, reeb, tol=1e-6):
    if abs(report["period"] - period) > tol * period:
        bad.append(f"period {report['period']!r}, want {period!r}")
    if abs(report["energy"] - energy) > 1e-12:
        bad.append(f"energy {report['energy']!r}, want {energy!r}")
    start = np.asarray(report["start"])
    n = len(start) // 2
    if np.max(np.abs(start[:n])) > 1e-12:
        bad.append(f"start momentum {start[:n].tolist()} is not on the brake set")
    if abs(np.linalg.norm(start[n:]) - q_abs) > 1e-8 * (1.0 + q_abs):
        bad.append(f"start |q| {np.linalg.norm(start[n:])!r}, want {q_abs!r}")
    if abs(report["reeb_factor"] - reeb) > 1e-8 * abs(reeb):
        bad.append(f"reeb factor {report['reeb_factor']!r}, want {reeb!r}")
    lin = report["linearized"]
    if not lin["symmetry_residual"] < 1e-6:
        bad.append(f"symmetry residual {lin['symmetry_residual']!r}")


def _linearized_check(bad, report, mu_doubled, nul):
    lin = report["linearized"]
    _expect(bad, "linearized mu1", lin["mu1"]["value"], _halfint(mu_doubled))
    _expect(bad, "linearized nullities", lin["nullities"],
            {"nu": nul[0], "nu1": nul[1], "nu2": nul[2]})
    _expect(bad, "degenerate", lin["degenerate"], nul[0] > 0)


def _quartic_oracle(c, energy):
    """Period, start, reeb factor and linearized data of the brake orbit of
    H = p^2/2 + q^2/2 + c q^4 through (0, q0), q0 > 0, by solve_ivp."""
    q0 = math.sqrt((-0.5 + math.sqrt(0.25 + 4.0 * c * energy)) / (2.0 * c))

    def rhs(t, y):
        p, q, dp, dq = y
        return [-(q + 4.0 * c * q ** 3), p, -(1.0 + 12.0 * c * q * q) * dq, dp]

    def turn(t, y):
        return y[0]

    turn.direction = 1.0  # p comes back up through 0 at the far turning point
    turn.terminal = True
    sol = scipy.integrate.solve_ivp(rhs, (0.0, 20.0), [0.0, q0, 0.0, 1.0],
                                    method="DOP853", rtol=1e-12, atol=1e-13,
                                    events=turn, dense_output=True)
    half = float(sol.t_events[0][0])
    # interior zeros of the p-part of Phi(t) e_q on (0, T/2): positive
    # crossings of L1, since H'' = diag(1, V'') is positive definite
    ts = np.linspace(0.0, half, 4001)[1:-1]
    dp = sol.sol(ts)[2]
    crossings = int(np.sum(np.sign(dp[:-1]) != np.sign(dp[1:])))
    return {"q0": q0, "period": 2.0 * half, "mu_doubled": 1 + 2 * crossings,
            "reeb": 2.0 / (q0 * q0 + 4.0 * c * q0 ** 4)}


def _closes(c, report):
    """Integrate the reported start over the reported period with solve_ivp."""
    z0 = np.asarray(report["start"], dtype=float)

    def rhs(t, y):
        return [-(y[1] + 4.0 * c * y[1] ** 3), y[0]]

    sol = scipy.integrate.solve_ivp(rhs, (0.0, report["period"]), z0,
                                    method="DOP853", rtol=1e-12, atol=1e-13)
    return float(np.linalg.norm(sol.y[:, -1] - z0))


def _orbit_doc(rng, kind, n):
    energy = float(rng.uniform(0.3, 1.0))
    # guesses miss by a fixed share, so shooting takes a similar number
    # of Newton steps for every seed
    jitter = 1.0 + _signed(rng, 0.05)
    period_jitter = 1.0 + _signed(rng, 0.02)
    if kind == "harmonic":
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        q_abs = math.sqrt(2.0 * energy)
        system = {"name": "harmonic", "n": n}
        q_guess = (q_abs * jitter * direction).tolist()
        period = TWO_PI

        def check(report):
            bad = []
            _orbit_common(bad, report, energy, period, q_abs, 1.0 / energy)
            _linearized_check(bad, report, 2 * n, (2 * n, n, n))
            return bad

    elif kind == "aniso":
        # the excited plane turns slowest and every other plane between
        # one and two times as fast, so the number of crossings, hence
        # the cost, is the same for every seed
        axis = int(rng.integers(0, n))
        w = float(rng.uniform(0.5, 1.0))
        while True:
            weights = [w * float(rng.uniform(1.0 + MARGIN, 2.0 - MARGIN)) ** 2 for _ in range(n)]
            weights[axis] = w
            ratios = [math.sqrt(a / b) for a in weights for b in weights if a != b]
            if all(_distance_to_integer(r) > MARGIN for r in ratios):
                break
        q_abs = math.sqrt(2.0 * energy / w)
        q_guess = [0.0] * n
        q_guess[axis] = q_abs * jitter
        system = {"name": "aniso", "weights": weights}
        period = TWO_PI / math.sqrt(w)
        # Phi(t) = exp(J0 H'' t): plane j turns at sqrt(w_j); over the half
        # period the excited plane meets L1 at both ends, plane j at
        # t = k pi / sqrt(w_j), all with positive crossing form
        mu = 2 + sum(1 + 2 * math.floor(math.sqrt(wj / w))
                     for j, wj in enumerate(weights) if j != axis)

        def check(report):
            bad = []
            _orbit_common(bad, report, energy, period, q_abs, 1.0 / energy)
            _linearized_check(bad, report, mu, (2, 1, 1))
            return bad

    else:  # quartic
        c = float(rng.uniform(0.1, 0.2))
        energy = float(rng.uniform(0.4, 0.7))
        system = {"n": 1, "terms": [{"coeff": 0.5, "powers": [2, 0]},
                                    {"coeff": 0.5, "powers": [0, 2]},
                                    {"coeff": c, "powers": [0, 4]}]}
        want = _quartic_oracle(c, energy)
        q_guess = [want["q0"] * jitter]
        # Lindstedt estimate of the frequency of q'' = -q - 4 c q^3
        period = TWO_PI / (1.0 + 1.5 * c * want["q0"] ** 2)

        def check(report):
            bad = []
            _orbit_common(bad, report, energy, want["period"], want["q0"], want["reeb"])
            gap = _closes(c, report)
            if gap > 1e-6:
                bad.append(f"solve_ivp from the reported start misses closing by {gap:.3e}")
            lin = report["linearized"]
            _expect(bad, "linearized mu1", lin["mu1"]["value"], _halfint(want["mu_doubled"]))
            return bad

    doc = {"system": system, "energy": energy, "q_guess": q_guess,
           "period_guess": period * period_jitter, "steps": SHOOTING_STEPS}
    return _cli_job(f"orbit/brake-orbit-{kind}-n{n}", "brake-orbit", doc, check)


def _orbit_job(rng, slot):
    kind, n = slot
    if kind.startswith("loop-"):
        return _loop_job(rng, kind, n)
    return _orbit_doc(rng, kind, n)


WORKLOADS = {
    "flow": (FLOW_SLOTS, _flow_job),
    "paths": (PATHS_SLOTS, _paths_job),
    "orbit": (ORBIT_SLOTS, _orbit_job),
}


def cycle_jobs(workload, seed, cycle):
    """The jobs of one cycle: every slot once, in slot order."""
    slots, make = WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload), cycle])
    return [make(rng, slot) for slot in slots]
