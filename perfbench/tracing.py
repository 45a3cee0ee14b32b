"""Wrappers installed around physanet's calls, in the benchmark process only.

Two kinds of wrapper exist.  An ``Observer`` keeps what the CLI's few calls
per operation return (trajectories, certificates, load time); it is active in
every pass because it costs nothing measurable.  A ``SpanStore`` records one
span per call at each layer boundary and is active only in traced passes.

Both work by rebinding module and class attributes at run time and restore
every binding when their ``Patches`` are undone; no file of the package is
touched.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from types import ModuleType

import numpy as np


class Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()

    def rebind(self, namespaces, original, replacement) -> None:
        """Point every attribute bound to ``original`` at ``replacement``.

        ``from .x import f`` leaves a second binding of ``f`` in the importing
        module, so each namespace is scanned rather than only the defining one.
        """
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)


def package_namespaces(physanet: ModuleType) -> list:
    """The package, its modules and the classes they define."""
    modules = [physanet] + [m for m in vars(physanet).values()
                            if isinstance(m, ModuleType)
                            and m.__name__.startswith("physanet.")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return modules + classes


class Observer:
    """Keeps the results the CLI obtains from ``dynamics.run`` and
    ``analysis.certificate``, and the time it spends in ``load_scenario``.

    The sweep's CSV carries neither steps nor terminal status, so these
    values are taken from the returned objects instead.
    """

    def __init__(self):
        self.trajectories: list = []
        self.certificates: list = []
        self.load_s = 0.0

    def install(self, physanet: ModuleType, patches: Patches) -> None:
        spaces = package_namespaces(physanet)
        run = physanet.dynamics.run
        certificate = physanet.analysis.certificate
        load = physanet.model.load_scenario

        @functools.wraps(run)
        def observed_run(*args, **kwargs):
            traj = run(*args, **kwargs)
            self.trajectories.append(traj)
            return traj

        @functools.wraps(certificate)
        def observed_certificate(*args, **kwargs):
            cert = certificate(*args, **kwargs)
            self.certificates.append(cert)
            return cert

        @functools.wraps(load)
        def timed_load(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return load(*args, **kwargs)
            finally:
                self.load_s += time.perf_counter() - t0

        patches.rebind(spaces, run, observed_run)
        patches.rebind(spaces, certificate, observed_certificate)
        patches.rebind(spaces, load, timed_load)

    def take(self):
        """Return and clear what was observed since the last call."""
        out = (self.trajectories, self.certificates, self.load_s)
        self.trajectories, self.certificates, self.load_s = [], [], 0.0
        return out


# (module, attribute) of each traced public function.  The layer of a span
# is the module that defines the function.
TRACED = (
    ("cli", "main"),
    ("model", "load_scenario"),
    ("model.Scenario", "sample_x0"),
    ("scenarios", "bowtie_scenario"),
    ("dynamics", "run"),
    ("dynamics", "rhs"),
    ("dynamics", "lambda_norms"),
    ("dynamics", "fixed_point_residual"),
    ("dynamics", "euler_step"),
    ("electrical", "solve_commodities"),
    ("electrical", "assemble_laplacian"),
    ("electrical", "default_grounding"),
    ("electrical", "network_cost"),
    ("electrical", "energy_dissipation"),
    ("analysis", "certificate"),
)

# The scipy factorization entry points electrical calls, traced as one span
# name so the dense and sparse paths compare.
FACTOR_SPAN = "electrical.factor"
FACTOR_ENTRY_POINTS = (("scipy.linalg", "cho_factor"),
                       ("scipy.sparse.linalg", "splu"))


class SpanStore:
    """Spans in flat arrays: name id, parent span index, start and end.

    A sweep makes over a million spans, so they are kept as machine arrays
    rather than objects and summarized per name when the run ends.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.solve_residual_max = 0.0
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_solution(self, solution) -> None:
        if solution.residuals.size:
            self.solve_residual_max = max(self.solve_residual_max,
                                          float(solution.residuals.max()))

    def install(self, physanet: ModuleType, patches: Patches) -> None:
        spaces = package_namespaces(physanet)
        for owner, attr in TRACED:
            mod_name, _, cls_name = owner.partition(".")
            target = getattr(physanet, mod_name, None)
            if cls_name:
                target = getattr(target, cls_name, None)
            fn = getattr(target, attr, None)
            if fn is None:  # absent in this version of the package
                continue
            observe = self._observe_solution if attr == "solve_commodities" else None
            patches.rebind(spaces, fn, self.wrap(f"{mod_name}.{attr}", fn, observe))
        for mod_name, attr in FACTOR_ENTRY_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            patches.rebind([mod] + spaces, fn, self.wrap(FACTOR_SPAN, fn))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: durations, self times and parent layer names.

        A span's self time is its duration minus the durations of its direct
        children; wrapped calls nest strictly, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        layers = np.array([n.partition(".")[0] for n in self.names] + [""])
        parent_layer = layers[np.where(has_parent,
                                       a["name"][np.maximum(a["parent"], 0)], -1)]
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {"dur": dur[mask], "self": self_time[mask],
                         "parent_layer": parent_layer[mask]}
        return out
