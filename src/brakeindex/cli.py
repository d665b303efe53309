"""Command line front end.

Subcommands: index, spectral-flow, vdim, brake-orbit, cap-oracle,
classify, selfcheck.  Inputs are UTF-8 JSON documents validated against
per-command schemas before dispatch.  Reports are deterministic JSON
carrying the tool version, the config snapshot, and a sha256 of the
canonicalized input.  Exit codes: 0 success, 2 validation error, 3
numerical error.

Half-integers serialize as {"doubled": k}.  Matrices are row-major
nested arrays.  Paths are either sampled ({"times": [...],
"matrices": [...]}) or generated ({"kind": "rotation", "omega": ...}).
Hamiltonians are named built-ins or sparse polynomial term lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import jsonschema
import numpy as np

from . import __version__
from .asymptotic import SymmetricLoop, blend_family, spectral_flow
from .capmodel import CapSpec, cap_kernel_cokernel, slow_cap_check
from .config import load_config
from .core import HalfInt, SymplecticPath, check_brake_symmetry, hyperbolic_path, rotation_path
from .errors import NumericalError, ValidationError
from .hamiltonian import (
    anisotropic_system,
    find_brake_orbit,
    harmonic_system,
    linearized_path,
    polynomial_system,
    reeb_factor,
)
from .indices import brake_maslov_report, conley_zehnder_report, nullities
from .moduli import ModuliSpec, OrbitRecord, classify_good_bad, virtual_dimension
from .selfcheck import run_all

_HALFINT = {
    "type": "object",
    "properties": {"doubled": {"type": "integer"}},
    "required": ["doubled"],
    "additionalProperties": False,
}

_MATRIX = {
    "type": "array",
    "minItems": 2,
    "items": {"type": "array", "items": {"type": "number"}, "minItems": 2},
}

_INTERVAL = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_PATH = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "rotation"},
                "omega": {"type": "number"},
                "n": {"type": "integer", "minimum": 1},
                "interval": _INTERVAL,
                "samples": {"type": "integer", "minimum": 3},
            },
            "required": ["kind", "omega"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "hyperbolic"},
                "lam": {"type": "number"},
                "interval": _INTERVAL,
                "samples": {"type": "integer", "minimum": 3},
            },
            "required": ["kind", "lam"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "times": {"type": "array", "items": {"type": "number"}, "minItems": 2},
                "matrices": {"type": "array", "items": _MATRIX, "minItems": 2},
                "based": {"type": "boolean"},
            },
            "required": ["times", "matrices"],
            "additionalProperties": False,
        },
    ]
}

_LOOP = {
    "type": "object",
    "properties": {
        "const": _MATRIX,
        "cos": {"type": "object", "patternProperties": {"^[0-9]+$": _MATRIX},
                "additionalProperties": False},
        "sin": {"type": "object", "patternProperties": {"^[0-9]+$": _MATRIX},
                "additionalProperties": False},
    },
    "required": ["const"],
    "additionalProperties": False,
}

_RECORD = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["brake", "pair"]},
        "label": {"type": "string"},
        "mu1": _HALFINT,
        "mu_cz": _HALFINT,
        "multiplicity": {"type": "integer", "minimum": 1},
        "nullity": {"type": "array", "items": {"type": "integer", "minimum": 0},
                    "minItems": 3, "maxItems": 3},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SYSTEM = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "name": {"const": "harmonic"},
                "n": {"type": "integer", "minimum": 1},
            },
            "required": ["name"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "name": {"const": "aniso"},
                "weights": {"type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1},
            },
            "required": ["name", "weights"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "terms": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "properties": {
                            "coeff": {"type": "number"},
                            "powers": {"type": "array",
                                       "items": {"type": "integer", "minimum": 0},
                                       "minItems": 2},
                        },
                        "required": ["coeff", "powers"],
                        "additionalProperties": False,
                    },
                },
                "symmetric": {"type": "boolean"},
            },
            "required": ["n", "terms"],
            "additionalProperties": False,
        },
    ]
}

SCHEMAS = {
    "index": {
        "type": "object",
        "properties": {
            "path": _PATH,
            "index": {"enum": ["cz", "mu1", "mu2", "nullities", "all"]},
        },
        "required": ["path"],
        "additionalProperties": False,
    },
    "spectral-flow": {
        "type": "object",
        "properties": {
            "minus": _LOOP,
            "plus": _LOOP,
            "domain": {"enum": ["full", "brake"]},
            "K": {"type": "integer", "minimum": 2},
        },
        "required": ["minus", "plus"],
        "additionalProperties": False,
    },
    "vdim": {
        "type": "object",
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "genus": {"type": "integer", "minimum": 0},
            "positive_brake": {"type": "array", "items": _RECORD},
            "negative_brake": {"type": "array", "items": _RECORD},
            "positive_pairs": {"type": "array", "items": _RECORD},
            "negative_pairs": {"type": "array", "items": _RECORD},
            "c1": {"type": "integer"},
        },
        "required": ["n", "genus"],
        "additionalProperties": False,
    },
    "brake-orbit": {
        "type": "object",
        "properties": {
            "system": _SYSTEM,
            "energy": {"type": "number"},
            "q_guess": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "period_guess": {"type": "number", "exclusiveMinimum": 0},
            "steps": {"type": "integer", "minimum": 16},
            "indices": {"type": "boolean"},
        },
        "required": ["system", "energy", "q_guess", "period_guess"],
        "additionalProperties": False,
    },
    "classify": {
        "type": "object",
        "properties": {
            "path": _PATH,
            "n": {"type": "integer", "minimum": 1},
            "max_m": {"type": "integer", "minimum": 1},
            "strict": {"type": "boolean"},
        },
        "required": ["path", "n", "max_m"],
        "additionalProperties": False,
    },
    "cap-oracle": {
        "type": "object",
        "properties": {
            "omega": {"type": "number"},
            "rank": {"type": "integer", "minimum": 1},
            "slow_oracle": {"type": "boolean"},
        },
        "required": ["omega"],
        "additionalProperties": False,
    },
    "selfcheck": {
        "type": "object",
        "properties": {
            "criteria": {"type": "array", "items": {"type": "integer",
                                                    "minimum": 1, "maximum": 10}},
        },
        "additionalProperties": False,
    },
}

_RECORD_GROUPS = ("positive_brake", "negative_brake",
                  "positive_pairs", "negative_pairs")


# minimal arrays that satisfy the sampled path's "times" and "matrices"
_SAMPLE_STANDINS = {"times": [0, 0], "matrices": [[[0, 0], [0, 0]]] * 2}


def _plain_numbers(value, depth):
    """Whether ``value`` is nested lists ``depth`` deep, each with at least
    two items, ending in numbers whose type is exactly int or float (bool
    is not a JSON number)."""
    level = [value]
    for _ in range(depth):
        for v in level:
            if type(v) is not list or len(v) < 2:
                return False
        level = [x for v in level for x in v]
    return {type(x) for x in level} <= {int, float}


def _with_sample_standins(schema, document):
    """The document with a sampled path's arrays swapped for minimal valid
    ones, or None when its arrays are not plain numbers of schema shape.
    Such arrays are valid, so the copy validates exactly when the document
    does, without a schema walk over every entry."""
    if "path" not in schema["properties"] or type(document) is not dict:
        return None
    path = document.get("path")
    if (type(path) is not dict
            or not _plain_numbers(path.get("times"), 1)
            or not _plain_numbers(path.get("matrices"), 3)):
        return None
    return dict(document, path=dict(path, **_SAMPLE_STANDINS))


def validate(command, document):
    """Schema violations for the document, as 'path: message' strings.

    A document whose sampled path arrays are plain numbers of schema shape
    is checked through a copy with stand-in arrays; every other document,
    and every invalid one, gets the full schema walk."""
    schema = SCHEMAS.get(command)
    if schema is None:
        return [f"$: unknown command {command!r}"]
    validator = jsonschema.Draft202012Validator(schema)
    standin = _with_sample_standins(schema, document)
    if standin is not None and validator.is_valid(standin):
        return []
    errors = sorted(validator.iter_errors(document),
                    key=lambda e: (list(map(str, e.path)), e.message))
    out = []
    for err in errors:
        where = ".".join(str(p) for p in err.path) or "$"
        out.append(f"{where}: {err.message}")
    if out or command != "vdim":
        return out
    # schema-clean vdim documents still need consistent record kinds
    for group in _RECORD_GROUPS:
        for i, rec in enumerate(document.get(group, [])):
            want_brake = "brake" in group
            if rec["kind"] != ("brake" if want_brake else "pair"):
                out.append(f"{group}.{i}: kind/index mismatch (wrong list)")
            if rec["kind"] == "brake" and ("mu_cz" in rec or "mu1" not in rec):
                out.append(f"{group}.{i}: kind/index mismatch "
                           "(brake records carry mu1 only)")
            if rec["kind"] == "pair" and ("mu1" in rec or "mu_cz" not in rec):
                out.append(f"{group}.{i}: kind/index mismatch "
                           "(pair records carry mu_cz only)")
    return out


def _canonical(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _sha256(document):
    return hashlib.sha256(_canonical(document).encode("utf-8")).hexdigest()


def _half(value: HalfInt):
    return {"doubled": value.doubled}


def _build_path(doc, cfg):
    if "times" in doc:
        times = np.asarray(doc["times"], dtype=float)
        values = np.asarray(doc["matrices"], dtype=float)
        based = doc.get("based")
        if based is None:
            based = bool(np.max(np.abs(values[0] - np.eye(values.shape[1]))) < 1e-12)
        return SymplecticPath(times, values, based=based, config=cfg)
    interval = tuple(doc.get("interval", (0.0, 1.0)))
    samples = int(doc.get("samples", 257))
    if doc["kind"] == "rotation":
        return rotation_path(doc["omega"], n=int(doc.get("n", 1)),
                             interval=interval, samples=samples, config=cfg)
    return hyperbolic_path(doc["lam"], interval=interval, samples=samples,
                           config=cfg)


def _build_loop(doc):
    const = np.asarray(doc["const"], dtype=float)
    cos = {int(k): np.asarray(m, dtype=float)
           for k, m in doc.get("cos", {}).items()}
    sin = {int(k): np.asarray(m, dtype=float)
           for k, m in doc.get("sin", {}).items()}
    return SymmetricLoop.fourier(const, cos=cos, sin=sin)


def _build_system(doc):
    if doc.get("name") == "harmonic":
        return harmonic_system(int(doc.get("n", 1)))
    if doc.get("name") == "aniso":
        return anisotropic_system(doc["weights"])
    terms = [(t["coeff"], t["powers"]) for t in doc["terms"]]
    return polynomial_system(int(doc["n"]), terms,
                             symmetric=bool(doc.get("symmetric", True)))


def _build_record(doc):
    return OrbitRecord(
        kind=doc["kind"],
        label=doc.get("label", ""),
        mu1=HalfInt(doc["mu1"]["doubled"]) if "mu1" in doc else None,
        mu_cz=HalfInt(doc["mu_cz"]["doubled"]) if "mu_cz" in doc else None,
        nullity=tuple(doc.get("nullity", (0, 0, 0))),
        multiplicity=int(doc.get("multiplicity", 1)),
    )


def _index_report_doc(report):
    return {
        "value": _half(report.value),
        "crossings": [
            {"time": float(c.time), "dim": int(c.dim),
             "signature": int(c.signature), "regular": bool(c.regular)}
            for c in report.crossings
        ],
        "endpoint_nullities": [int(v) for v in report.endpoint_nullities],
    }


def _run_index(doc, cfg):
    path = _build_path(doc["path"], cfg)
    which = doc.get("index", "all")
    out = {}
    if which in ("cz", "all"):
        out["cz"] = _index_report_doc(conley_zehnder_report(path, config=cfg))
    if which in ("mu1", "all"):
        out["mu1"] = _index_report_doc(brake_maslov_report(path, k=1, config=cfg))
    if which in ("mu2", "all"):
        out["mu2"] = _index_report_doc(brake_maslov_report(path, k=2, config=cfg))
    if which in ("nullities", "all"):
        nu, nu1, nu2 = nullities(path, config=cfg)
        out["nullities"] = {"nu": nu, "nu1": nu1, "nu2": nu2}
    return out


def _run_spectral_flow(doc, cfg):
    family = blend_family(_build_loop(doc["minus"]), _build_loop(doc["plus"]),
                          domain=doc.get("domain", "full"))
    report = spectral_flow(family, K=doc.get("K"), config=cfg)
    return {
        "flow": report.value,
        "crossings": [{"s": float(s), "jump": int(j)}
                      for s, j in report.crossings],
    }


def _run_vdim(doc, cfg):
    spec = ModuliSpec(
        n=doc["n"], genus=doc["genus"],
        positive_brake=tuple(_build_record(r) for r in doc.get("positive_brake", [])),
        negative_brake=tuple(_build_record(r) for r in doc.get("negative_brake", [])),
        positive_pairs=tuple(_build_record(r) for r in doc.get("positive_pairs", [])),
        negative_pairs=tuple(_build_record(r) for r in doc.get("negative_pairs", [])),
    )
    report = virtual_dimension(spec, c1=doc.get("c1", 0))
    assembled = (report.fredholm + report.teichmuller - report.automorphisms)
    return {
        "fredholm": _half(report.fredholm),
        "teichmuller": report.teichmuller,
        "automorphisms": report.automorphisms,
        "virtual": _half(report.virtual),
        "routes": {"assembled": _half(assembled), "closed": _half(report.virtual)},
        "integer_valued": report.integer_valued,
        "degenerate_input": report.degenerate_input,
    }


def _run_brake_orbit(doc, cfg):
    system = _build_system(doc["system"])
    orbit = find_brake_orbit(system, doc["energy"], doc["q_guess"],
                             doc["period_guess"], config=cfg,
                             steps=int(doc.get("steps", 1024)))
    out = {
        "energy": orbit.energy,
        "period": orbit.period,
        "start": [float(v) for v in orbit.start],
        "turning_point": [float(v) for v in orbit.turning_point],
        "reeb_factor": reeb_factor(system, orbit.start),
    }
    if doc.get("indices", True):
        path = linearized_path(orbit, config=cfg)
        nu, nu1, nu2 = nullities(path, config=cfg)
        out["linearized"] = {
            "mu1": _index_report_doc(brake_maslov_report(path, config=cfg)),
            "nullities": {"nu": nu, "nu1": nu1, "nu2": nu2},
            "symmetry_residual": float(check_brake_symmetry(path)),
            "degenerate": nu > 0,
        }
    return out


def _run_classify(doc, cfg):
    path = _build_path(doc["path"], cfg)
    rows = classify_good_bad(path, doc["n"], doc["max_m"],
                             strict=bool(doc.get("strict", False)), config=cfg)
    return {
        "rows": [
            {"multiplicity": r.multiplicity, "cz": _half(r.cz),
             "degree": _half(r.degree), "nullity": r.nullity,
             "degenerate": r.degenerate, "verdict": r.verdict}
            for r in rows
        ]
    }


def _run_cap_oracle(doc, cfg):
    spec = CapSpec(doc["omega"], rank=doc.get("rank", 1))
    ker, coker = cap_kernel_cokernel(spec)
    out = {
        "kernel": ker,
        "cokernel": coker,
        "index": _half(HalfInt.from_int(ker - coker)),
    }
    if doc.get("slow_oracle"):
        sk, sc = slow_cap_check(doc["omega"])
        rank = doc.get("rank", 1)
        agrees = (sk * rank, sc * rank) == (ker, coker)
        out["slow_oracle"] = {"kernel": sk * rank, "cokernel": sc * rank,
                              "agrees": agrees}
        if not agrees:
            raise NumericalError(
                f"slow oracle counts ({sk * rank}, {sc * rank}) disagree "
                f"with mode counts ({ker}, {coker})"
            )
    return out


def _run_selfcheck(doc, cfg):
    results = run_all(doc.get("criteria"))
    for res in results:
        print(res.line(), file=sys.stderr)
    return {
        "passed": all(r.passed for r in results),
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail, "elapsed_s": round(r.elapsed, 3)}
            for r in results
        ],
    }


_HANDLERS = {
    "index": _run_index,
    "spectral-flow": _run_spectral_flow,
    "vdim": _run_vdim,
    "brake-orbit": _run_brake_orbit,
    "classify": _run_classify,
    "cap-oracle": _run_cap_oracle,
    "selfcheck": _run_selfcheck,
}


def _load_document(arg_input):
    if arg_input == "-":
        raw = sys.stdin.read()
    else:
        with open(arg_input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from exc


def _emit(envelope, out_path):
    text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parser():
    parser = argparse.ArgumentParser(
        prog="brakeindex",
        description="Symplectic index, spectral flow, and moduli dimension "
                    "computations for brake-symmetric problems.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="write the report here instead of stdout")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file")
    shared.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("index", "Robbin-Salamon, Conley-Zehnder, and brake indices of a path"),
        ("spectral-flow", "eigenvalue flow between two coefficient loops"),
        ("vdim", "virtual dimension of a moduli problem"),
        ("brake-orbit", "shoot for a brake orbit and grade its linearization"),
        ("classify", "good/bad classification of orbit iterates"),
    ):
        p = sub.add_parser(name, help=blurb, parents=[shared])
        p.add_argument("input", help="JSON document path, or - for stdin")
    cap = sub.add_parser("cap-oracle", parents=[shared],
                         help="kernel/cokernel counts of the model cap")
    cap.add_argument("--omega", type=float, required=True)
    cap.add_argument("--rank", type=int, default=1)
    cap.add_argument("--slow-oracle", action="store_true",
                     help="cross-check by integrating the decay ODE")
    check = sub.add_parser("selfcheck", parents=[shared],
                           help="run the built-in verification battery")
    check.add_argument("--criteria", default="",
                       help="comma-separated criterion numbers (default: all)")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    command = args.command

    def fail(code, exc, document, violations=None):
        error = {"type": type(exc).__name__, "message": str(exc)}
        if violations:
            error["violations"] = violations
        _emit({
            "tool": "brakeindex",
            "version": __version__,
            "command": command,
            "config": cfg.as_dict() if cfg is not None else None,
            "input_sha256": _sha256(document) if document is not None else None,
            "error": error,
        }, args.out)
        return code

    cfg = None
    document = None
    try:
        cfg = load_config(args.config)
    except (ValidationError, OSError) as exc:
        return fail(2, exc, None)

    try:
        if command == "cap-oracle":
            document = {"omega": args.omega, "rank": args.rank}
            if args.slow_oracle:
                document["slow_oracle"] = True
        elif command == "selfcheck":
            document = {}
            if args.criteria:
                document["criteria"] = [int(v) for v in args.criteria.split(",")]
        else:
            document = _load_document(args.input)
    except (ValidationError, OSError, ValueError) as exc:
        return fail(2, exc, None)

    violations = validate(command, document)
    if violations:
        return fail(2, ValidationError("input document is invalid"),
                    document, violations)

    try:
        report = _HANDLERS[command](document, cfg)
    except ValidationError as exc:
        return fail(2, exc, document)
    except NumericalError as exc:
        return fail(3, exc, document)

    _emit({
        "tool": "brakeindex",
        "version": __version__,
        "command": command,
        "config": cfg.as_dict(),
        "input_sha256": _sha256(document),
        "report": report,
    }, args.out)
    if command == "selfcheck" and not report["passed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
