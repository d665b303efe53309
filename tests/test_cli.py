"""End-to-end command line tests: wiring, envelopes, exit codes, config."""

import io
import json
import math

import jsonschema
import numpy as np
import pytest

from brakeindex import __version__
from brakeindex.capmodel import cap_kernel_cokernel, CapSpec
from brakeindex.cli import SCHEMAS, main, validate
from brakeindex.moduli import ModuliSpec, OrbitRecord, virtual_dimension
from brakeindex.core import HalfInt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    envelope = json.loads(captured.out) if captured.out else None
    return code, envelope, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_index_rotation_document(tmp_path, capsys):
    doc = {"path": {"kind": "rotation", "omega": 3 * math.pi}}
    code, env, _ = run(capsys, "index", write_doc(tmp_path, doc))
    assert code == 0
    rep = env["report"]
    assert rep["cz"]["value"] == {"doubled": 6}
    assert rep["mu1"]["value"] == {"doubled": 3}
    assert rep["mu2"]["value"] == {"doubled": 3}
    assert rep["nullities"] == {"nu": 0, "nu1": 0, "nu2": 0}
    assert env["tool"] == "brakeindex"
    assert env["version"] == __version__
    assert env["command"] == "index"


def test_index_sampled_path_autodetects_base(tmp_path, capsys):
    times = np.linspace(0.0, 1.0, 101)
    mats = [[[math.cos(math.pi * t), -math.sin(math.pi * t)],
             [math.sin(math.pi * t), math.cos(math.pi * t)]] for t in times]
    doc = {"path": {"times": times.tolist(), "matrices": mats},
           "index": "cz"}
    code, env, _ = run(capsys, "index", write_doc(tmp_path, doc))
    assert code == 0
    assert env["report"]["cz"]["value"] == {"doubled": 2}
    assert "mu1" not in env["report"]


def test_out_flag_writes_report_file(tmp_path, capsys):
    doc = {"path": {"kind": "rotation", "omega": 1.0}, "index": "nullities"}
    out = tmp_path / "report.json"
    code = main(["index", write_doc(tmp_path, doc), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    env = json.loads(out.read_text(encoding="utf-8"))
    assert env["report"]["nullities"] == {"nu": 0, "nu1": 0, "nu2": 0}


def test_input_hash_ignores_formatting(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"path": {"kind": "rotation", "omega": 1.0}}')
    b.write_text('{\n  "path": {"omega": 1.0,   "kind": "rotation"}\n}')
    _, env_a, _ = run(capsys, "index", str(a))
    _, env_b, _ = run(capsys, "index", str(b))
    assert env_a["input_sha256"] == env_b["input_sha256"]
    assert len(env_a["input_sha256"]) == 64


def test_stdin_input(tmp_path, capsys, monkeypatch):
    doc = {"path": {"kind": "rotation", "omega": 1.0}, "index": "mu1"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, env, _ = run(capsys, "index", "-")
    assert code == 0
    assert env["report"]["mu1"]["value"] == {"doubled": 1}


def test_schema_violations_exit_2(tmp_path, capsys):
    doc = {"path": {"kind": "rotation", "omega": "fast"}, "extra": 1}
    code, env, _ = run(capsys, "index", write_doc(tmp_path, doc))
    assert code == 2
    assert env["error"]["type"] == "ValidationError"
    assert env["error"]["violations"]
    assert env.get("report") is None


def _schema_walk(command, document):
    """validate()'s violation strings from a plain jsonschema run."""
    errors = jsonschema.Draft202012Validator(SCHEMAS[command]).iter_errors(document)
    errors = sorted(errors, key=lambda e: (list(map(str, e.path)), e.message))
    return [f"{'.'.join(str(p) for p in e.path) or '$'}: {e.message}" for e in errors]


def _sampled_variants():
    times = np.linspace(0.0, 1.0, 5)
    mats = [[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]] for t in times]
    base = {"times": times.tolist(), "matrices": mats}

    def variant(edit):
        path = json.loads(json.dumps(base))
        edit(path)
        return path

    return {
        "valid": variant(lambda p: None),
        "valid-int-entries": variant(lambda p: p["matrices"][0].__setitem__(0, [1, 0])),
        "valid-based": variant(lambda p: p.__setitem__("based", True)),
        "bool-in-matrix": variant(lambda p: p["matrices"][1][0].__setitem__(1, True)),
        "bool-in-times": variant(lambda p: p["times"].__setitem__(3, False)),
        "string-in-times": variant(lambda p: p["times"].__setitem__(2, "0.5")),
        "null-in-matrix": variant(lambda p: p["matrices"][4][1].__setitem__(0, None)),
        "one-entry-row": variant(lambda p: p["matrices"][2].__setitem__(1, [1.0])),
        "one-row-matrix": variant(lambda p: p["matrices"].__setitem__(3, [[1.0, 0.0]])),
        "single-time": variant(lambda p: p.__setitem__("times", [0.0])),
        "times-not-list": variant(lambda p: p.__setitem__("times", 0.0)),
        "extra-path-key": variant(lambda p: p.__setitem__("omega", 1.0)),
        "kind-key": variant(lambda p: p.__setitem__("kind", "rotation")),
    }


def test_validate_fast_accept_matches_schema_walk():
    # validate() skips the per-entry walk on plain-number sample arrays;
    # every answer must still be the plain schema run's, string for string
    loop = {"const": [[1.0, 0.0], [0.0, 1.0]]}
    seen_valid = seen_invalid = 0
    for name, path in _sampled_variants().items():
        docs = [("index", {"path": path, "index": "all"}),
                ("classify", {"path": path, "n": 1, "max_m": 2}),
                ("classify", {"path": path, "n": 1}),
                ("spectral-flow", {"minus": loop, "plus": loop, "path": path})]
        for command, doc in docs:
            want = _schema_walk(command, doc)
            assert validate(command, doc) == want, (name, command)
            seen_valid += not want
            seen_invalid += bool(want)
    assert (seen_valid, seen_invalid) == (6, 46)


def test_invalid_json_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope", encoding="utf-8")
    code, env, _ = run(capsys, "index", str(p))
    assert code == 2
    assert "JSON" in env["error"]["message"]


def test_spectral_flow_command(tmp_path, capsys):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    doc = {
        "minus": {"const": eye},
        "plus": {"const": [[7.0, 0.0], [0.0, 7.0]]},
        "domain": "full",
        "K": 8,
    }
    code, env, _ = run(capsys, "spectral-flow", write_doc(tmp_path, doc))
    assert code == 0
    assert env["report"]["flow"] == 2
    assert len(env["report"]["crossings"]) == 1
    assert env["report"]["crossings"][0]["jump"] == 2

    doc["domain"] = "brake"
    code, env, _ = run(capsys, "spectral-flow", write_doc(tmp_path, doc))
    assert code == 0
    assert env["report"]["flow"] == 1


def test_vdim_command_matches_library(tmp_path, capsys):
    doc = {
        "n": 2,
        "genus": 0,
        "positive_brake": [
            {"kind": "brake", "label": "top", "mu1": {"doubled": 3},
             "nullity": [0, 0, 0]},
        ],
        "negative_pairs": [
            {"kind": "pair", "mu_cz": {"doubled": 4}, "multiplicity": 1},
        ],
        "c1": 1,
    }
    code, env, _ = run(capsys, "vdim", write_doc(tmp_path, doc))
    assert code == 0
    rep = env["report"]
    spec = ModuliSpec(
        n=2, genus=0,
        positive_brake=(OrbitRecord(kind="brake", label="top",
                                    mu1=HalfInt(3)),),
        negative_pairs=(OrbitRecord(kind="pair", mu_cz=HalfInt(4)),),
    )
    want = virtual_dimension(spec, c1=1)
    assert rep["virtual"] == {"doubled": want.virtual.doubled}
    assert rep["fredholm"] == {"doubled": want.fredholm.doubled}
    assert rep["routes"]["assembled"] == rep["routes"]["closed"]
    assert rep["integer_valued"] == want.integer_valued


def test_vdim_kind_mismatch_exit_2(tmp_path, capsys):
    doc = {
        "n": 1,
        "genus": 0,
        "positive_brake": [
            {"kind": "pair", "mu_cz": {"doubled": 2}},
        ],
    }
    code, env, _ = run(capsys, "vdim", write_doc(tmp_path, doc))
    assert code == 2
    assert any("mismatch" in v for v in env["error"]["violations"])


def test_brake_orbit_command(tmp_path, capsys):
    doc = {
        "system": {"name": "harmonic", "n": 1},
        "energy": 0.5,
        "q_guess": [1.1],
        "period_guess": 6.0,
        "steps": 512,
    }
    code, env, _ = run(capsys, "brake-orbit", write_doc(tmp_path, doc))
    assert code == 0
    rep = env["report"]
    assert rep["period"] == pytest.approx(2 * math.pi, abs=1e-7)
    assert rep["energy"] == pytest.approx(0.5)
    assert rep["reeb_factor"] == pytest.approx(2.0, abs=1e-9)
    lin = rep["linearized"]
    assert lin["mu1"]["value"] == {"doubled": 2}
    assert lin["nullities"] == {"nu": 2, "nu1": 1, "nu2": 1}
    assert lin["degenerate"] is True
    assert lin["symmetry_residual"] < 1e-7


def test_brake_orbit_failure_exit_3(tmp_path, capsys):
    doc = {
        "system": {"name": "harmonic", "n": 1},
        "energy": 0.5,
        "q_guess": [1.0],
        "period_guess": 1.5,
        "steps": 256,
    }
    code, env, _ = run(capsys, "brake-orbit", write_doc(tmp_path, doc))
    assert code == 3
    assert env["error"]["type"] == "NoConvergence"


_QUARTIC_ORBIT = {
    "system": {"n": 1, "terms": [{"coeff": 0.5, "powers": [2, 0]},
                                 {"coeff": 0.5, "powers": [0, 2]},
                                 {"coeff": 0.15, "powers": [0, 4]}]},
    "energy": 0.5,
    "q_guess": [0.95],
    "period_guess": 5.6,
    "steps": 256,
}


@pytest.mark.parametrize("var, key, value, error", [
    (None, None, None, None),
    ("BIT_SHOOTING_MAX_ITER", "shooting.max_iter", 1, "NoConvergence"),
    ("BIT_ODE_STEPS", "ode.steps", 32, "EnergyDrift"),
], ids=["defaults", "shooting.max_iter", "ode.steps"])
def test_orbit_keys_reach_brake_orbit(tmp_path, capsys, monkeypatch, var, key, value, error):
    # one Newton step does not converge from this guess, and 32 RK4 steps
    # over the whole orbit drift off the energy level
    if var is not None:
        monkeypatch.setenv(var, str(value))
    code, env, _ = run(capsys, "brake-orbit", write_doc(tmp_path, _QUARTIC_ORBIT))
    if error is None:
        assert code == 0, env.get("error")
        return
    assert env["config"][key] == value
    assert code == 3
    assert env["error"]["type"] == error


def test_classify_command(tmp_path, capsys):
    doc = {"path": {"kind": "hyperbolic", "lam": -2.0, "samples": 513},
           "n": 1, "max_m": 4}
    code, env, _ = run(capsys, "classify", write_doc(tmp_path, doc))
    assert code == 0
    rows = env["report"]["rows"]
    assert [r["verdict"] for r in rows] == ["good", "bad", "good", "bad"]
    assert [r["cz"]["doubled"] for r in rows] == [2, 4, 6, 8]
    assert all(r["degenerate"] is False for r in rows)


def test_cap_oracle_flags(capsys):
    code, env, _ = run(capsys, "cap-oracle", "--omega", "7.0",
                       "--rank", "2", "--slow-oracle")
    assert code == 0
    rep = env["report"]
    ker, coker = cap_kernel_cokernel(CapSpec(7.0, rank=2))
    assert (rep["kernel"], rep["cokernel"]) == (ker, coker) == (4, 0)
    assert rep["index"] == {"doubled": 8}
    assert rep["slow_oracle"]["agrees"] is True


def test_cap_oracle_resonant_exit_2(capsys):
    code, env, _ = run(capsys, "cap-oracle", "--omega", str(2 * math.pi))
    assert code == 2
    assert env["error"]["type"] == "OmegaResonant"


def test_selfcheck_subset(capsys):
    code, env, err = run(capsys, "selfcheck", "--criteria", "1,8")
    assert code == 0
    rep = env["report"]
    assert rep["passed"] is True
    assert [r["number"] for r in rep["results"]] == [1, 8]
    assert all(r["passed"] for r in rep["results"])
    assert err.count("PASS") == 2


def test_config_file_and_env_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ode.steps": 512, "tol.rank": 1e-7}))
    monkeypatch.setenv("BIT_ODE_STEPS", "256")
    doc = {"path": {"kind": "rotation", "omega": 1.0}, "index": "nullities"}
    code, env, _ = run(capsys, "index", write_doc(tmp_path, doc),
                       "--config", str(cfg))
    assert code == 0
    assert env["config"]["ode.steps"] == 256       # env beats file
    assert env["config"]["tol.rank"] == 1e-7       # file beats default
    assert env["config"]["fourier.K"] == 32        # default survives


def test_config_flag_before_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fourier.K": 16}))
    doc = {"path": {"kind": "rotation", "omega": 1.0}}
    code, env, _ = run(capsys, "--config", str(cfg), "index",
                       write_doc(tmp_path, doc))
    assert code == 0
    assert env["config"]["fourier.K"] == 16


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol.everything": 1.0}))
    doc = {"path": {"kind": "rotation", "omega": 1.0}}
    code, env, _ = run(capsys, "index", write_doc(tmp_path, doc),
                       "--config", str(cfg))
    assert code == 2
    assert "tol.everything" in env["error"]["message"]


def test_bad_env_value_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIT_FOURIER_K", "many")
    doc = {"path": {"kind": "rotation", "omega": 1.0}}
    code, env, _ = run(capsys, "index", write_doc(tmp_path, doc))
    assert code == 2
    assert "BIT_FOURIER_K" in env["error"]["message"]


def test_rank_tolerance_reaches_every_index(tmp_path, capsys, monkeypatch):
    # omega = 6.33 sits 0.047 past a full turn: under tol.rank = 0.1 the
    # end of the path counts as an intersection in every index, not only
    # in the nullities.  The crossing just before the end is then counted
    # again, so each index must report its winding (cz 3, mu 1) or raise,
    # never the list's doubled 10 and 4
    monkeypatch.setenv("BIT_TOL_RANK", "0.1")
    path = {"kind": "rotation", "omega": 6.33}
    code, env, _ = run(capsys, "index",
                       write_doc(tmp_path, {"path": path, "index": "nullities"}))
    assert code == 0
    assert env["config"]["tol.rank"] == 0.1
    assert env["report"]["nullities"] == {"nu": 2, "nu1": 1, "nu2": 1}
    for key, winding, ends in (("cz", 6, [2, 2]), ("mu1", 2, [1, 1]), ("mu2", 2, [1, 1])):
        code, env, _ = run(capsys, "index",
                           write_doc(tmp_path, {"path": path, "index": key}))
        assert env["config"]["tol.rank"] == 0.1
        if code != 0:
            assert code == 3
            assert env["error"]["type"] == "CrossingUnresolved"
            continue
        assert env["report"][key]["value"] == {"doubled": winding}
        assert env["report"][key]["endpoint_nullities"] == ends


def test_fourier_order_reaches_spectral_flow(tmp_path, capsys, monkeypatch):
    # I -> 14 I crosses 2 pi and 4 pi; modes up to K = 1 see only the first
    doc = {"minus": {"const": [[1.0, 0.0], [0.0, 1.0]]},
           "plus": {"const": [[14.0, 0.0], [0.0, 14.0]]}, "domain": "full"}
    code, env, _ = run(capsys, "spectral-flow", write_doc(tmp_path, doc))
    assert code == 0
    assert env["report"]["flow"] == 4
    monkeypatch.setenv("BIT_FOURIER_K", "1")
    code, env, _ = run(capsys, "spectral-flow", write_doc(tmp_path, doc))
    assert code == 0
    assert env["config"]["fourier.K"] == 1
    assert env["report"]["flow"] == 2
    # a K in the document wins over the config
    code, env, _ = run(capsys, "spectral-flow", write_doc(tmp_path, dict(doc, K=8)))
    assert code == 0
    assert env["report"]["flow"] == 4


def test_zero_eigenvalue_tolerance_reaches_spectral_flow(tmp_path, capsys, monkeypatch):
    # the plus endpoint (2 pi + 1e-4) I has an eigenvalue -1e-4: nonzero
    # under the default tol.zero_eig = 1e-6, a kernel under 1e-3
    w = 2 * math.pi + 1e-4
    doc = {"minus": {"const": [[1.0, 0.0], [0.0, 1.0]]},
           "plus": {"const": [[w, 0.0], [0.0, w]]}, "domain": "full", "K": 8}
    code, env, _ = run(capsys, "spectral-flow", write_doc(tmp_path, doc))
    assert code == 0, env.get("error")
    assert env["report"]["flow"] == 2
    monkeypatch.setenv("BIT_TOL_ZERO_EIG", "1e-3")
    code, env, _ = run(capsys, "spectral-flow", write_doc(tmp_path, doc))
    assert env["config"]["tol.zero_eig"] == 1e-3
    assert code == 3
    assert env["error"]["type"] == "EndpointDegenerate"


def _noisy_rotation_doc(omega=5.0, samples=257, noise=1e-7):
    # sample 0 stays the identity, so the path is still detected as based
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, samples)
    mats = np.stack([[[math.cos(omega * t), -math.sin(omega * t)],
                      [math.sin(omega * t), math.cos(omega * t)]] for t in times])
    mats[1:] += noise * rng.standard_normal(mats[1:].shape)
    return {"times": times.tolist(), "matrices": mats.tolist()}


def test_symplectic_tolerance_reaches_derived_paths(tmp_path, capsys, monkeypatch):
    # residual ~5e-7: accepted under tol.symplectic = 1e-6, and so must be
    # the half path of the brake indices and the iterates of classify
    path = _noisy_rotation_doc()
    index_doc = write_doc(tmp_path, {"path": path, "index": "all"}, "index.json")
    classify_doc = write_doc(tmp_path, {"path": path, "n": 1, "max_m": 2},
                             "classify.json")
    for command, doc in (("index", index_doc), ("classify", classify_doc)):
        code, env, _ = run(capsys, command, doc)
        assert code == 3
        assert env["error"]["type"] == "SymplecticityLost"

    monkeypatch.setenv("BIT_TOL_SYMPLECTIC", "1e-6")
    code, env, _ = run(capsys, "index", index_doc)
    assert code == 0, env.get("error")
    assert env["config"]["tol.symplectic"] == 1e-6
    rep = env["report"]
    assert rep["cz"]["value"] == {"doubled": 2}
    assert rep["mu1"]["value"] == {"doubled": 1}
    assert rep["mu2"]["value"] == {"doubled": 1}
    code, env, _ = run(capsys, "classify", classify_doc)
    assert code == 0, env.get("error")
    assert [r["cz"]["doubled"] for r in env["report"]["rows"]] == [2, 6]
