"""Layer spans for the traced benchmark run.

The tracer wraps public functions of ``brakeindex`` from the outside: it
replaces each listed function at its module attribute and at every other
``brakeindex`` module attribute bound to the same object (``from .x
import y`` re-binds, and ``cli`` does so for every handler), and each
listed method on its class.  Nothing under ``src/`` is edited.

Every job gets one root span.  Spans keep their name, parent, job,
start, end and whether the call raised; they stay in memory in compact
arrays and are written out once, when the run ends.  Three hot
callables run tens of thousands of times per job, so they are only
counted.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

ROOT = "job"

# (module, qualified name) of every function that gets a span
SPANNED = (
    ("cli", "main"),
    ("cli", "validate"),
    ("core", "SymplecticPath.__init__"),
    ("core", "SymplecticPath.value_at"),
    ("core", "check_brake_symmetry"),
    ("core", "fundamental_solution"),
    ("indices", "maslov_index"),
    ("indices", "nullities"),
    ("asymptotic", "spectral_flow"),
    ("asymptotic", "kernel_dimension"),
    ("asymptotic", "discretize"),
    ("asymptotic", "OperatorFamily.operator_at"),
    ("moduli", "classify_good_bad"),
    ("moduli", "iterate_path"),
    ("hamiltonian", "find_brake_orbit"),
    ("hamiltonian", "integrate_orbit"),
    ("hamiltonian", "linearized_path"),
)

# hot callables: calls are counted, no span is kept
COUNTED = (
    ("indices", "LagrangianPath.frame_at"),
    ("asymptotic", "SymmetricLoop.__call__"),
    ("hamiltonian", "HamiltonianSystem.field"),
)

# spans whose result carries a tuple of reported crossings
CROSSING_RESULTS = ("indices.maslov_index", "asymptotic.spectral_flow")

LAYERS = tuple(dict.fromkeys(module for module, _ in SPANNED))


def _key(module, qualname):
    return f"{module}.{qualname}"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "brakeindex" or name.startswith("brakeindex."))]


class Tracer:
    """Installs the wrappers, records spans and counts, computes metrics."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names = [ROOT] + [_key(m, q) for m, q in SPANNED]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name = array("h")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack = [-1]
        self._job = -1
        self.counts = {_key(m, q): 0 for m, q in COUNTED}
        self.crossings = {key: 0 for key in CROSSING_RESULTS}
        self._patches = []

    # -- recording ------------------------------------------------------

    def _open(self, idx):
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self._clock())
        return sid

    def _close(self, sid):
        self.end[sid] = self._clock()
        self._stack.pop()

    def run_job(self, fn):
        """Run ``fn()`` under a fresh root span; returns its result."""
        sid = len(self.name)
        self._job = sid
        self._open(0)
        try:
            return fn()
        except BaseException:
            self.error[sid] = 1
            raise
        finally:
            self._close(sid)
            self._job = -1

    def _spanned(self, key, fn):
        idx = self._index[key]
        crossings = self.crossings if key in CROSSING_RESULTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = 1
                raise
            finally:
                self._close(sid)
            if crossings is not None:
                crossings[key] += len(result.crossings)
            return result

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing -----------------------------------------------------

    def install(self):
        import brakeindex

        for module, qualname in SPANNED:
            self._patch(brakeindex, module, qualname, self._spanned)
        for module, qualname in COUNTED:
            self._patch(brakeindex, module, qualname, self._counted)

    def _patch(self, package, module, qualname, make):
        owner = getattr(package, module)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make(_key(module, qualname), original)
        targets = [(owner, attr)]
        if not outer:
            for mod in _package_modules():
                for name, value in list(vars(mod).items()):
                    if value is original and (mod, name) != (owner, attr):
                        targets.append((mod, name))
        for obj, name in targets:
            setattr(obj, name, wrapper)
            self._patches.append((obj, name, original))

    def uninstall(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int16).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.error, dtype=np.int8).astype(bool))

    def metrics(self):
        """Per-layer metrics, normalized per job where they are totals."""
        names, parents, start, end, errors = self._arrays()
        dur = end - start
        has_parent = parents >= 0
        child = np.zeros(len(names))
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child

        # busy time counts only the outermost span of a name, so a
        # function reached again inside itself is not counted twice
        nested = np.zeros(len(names), dtype=bool)
        anc = parents.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= names[anc[live]] == names[live]
            anc[live] = parents[anc[live]]

        jobs = max(1, int(np.sum(names == 0)))
        root_time = float(np.sum(dur[names == 0]))
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for idx, key in enumerate(self.names[1:], start=1):
            mask = names == idx
            out[f"{key}.calls"] = (float(np.sum(mask)) / jobs, "calls/job")
            out[f"{key}.busy_s"] = (float(np.sum(dur[mask & ~nested])) / jobs, "s/job")
            self_s = float(np.sum(self_time[mask]))
            out[f"{key}.self_s"] = (self_s / jobs, "s/job")
            out[f"{key}.errors"] = (float(np.sum(errors[mask])) / jobs, "errors/job")
            layer_self[key.split(".")[0]] += self_s
        for key, value in self.counts.items():
            out[f"{key}.calls"] = (value / jobs, "calls/job")

        crossings = self.crossings["indices.maslov_index"]
        frames = self.counts["indices.LagrangianPath.frame_at"]
        out["indices.frames_per_crossing"] = (
            frames / crossings if crossings else 0.0, "frames/crossing")
        crossings = self.crossings["asymptotic.spectral_flow"]
        points = float(np.sum(names == self._index["asymptotic.OperatorFamily.operator_at"]))
        out["asymptotic.points_per_crossing"] = (
            points / crossings if crossings else 0.0, "points/crossing")
        orbit_key = self._index["hamiltonian.find_brake_orbit"]
        orbits = int(np.sum((names == orbit_key) & ~errors))
        fields = self.counts["hamiltonian.HamiltonianSystem.field"]
        out["hamiltonian.field_calls_per_orbit"] = (
            fields / orbits if orbits else 0.0, "calls/orbit")

        for layer, value in layer_self.items():
            out[f"{layer}.self_share"] = (value / root_time if root_time else 0.0, "1")
        out["job.busy_s"] = (root_time / jobs, "s/job")
        root_self = float(np.sum(self_time[names == 0]))
        out["job.uncovered_share"] = (root_self / root_time if root_time else 0.0, "1")
        return out

    def save(self, path):
        names, parents, start, end, errors = self._arrays()
        np.savez(path, span_names=np.asarray(self.names), name=names, parent=parents,
                 job=np.frombuffer(self.job, dtype=np.int64), start=start, end=end,
                 error=errors)
