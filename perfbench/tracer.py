"""Outside tracer: spans around the public functions of hamrep's layers.

`Tracer.install()` wraps every public module-level function of the traced
modules and replaces it in each namespace that bound it. `from x import f`
copies the binding, so `builder.conjugate`, `zoo.conjugate_values` and
`cli.build_noncompact` are patched one by one, and module-level tables
such as `cli._TRIPLES` are patched too. `RepresentationTriple.e_table` is
wrapped on the class, and the evaluators of every triple a factory returns
are wrapped on the instance. Nothing in the package is edited;
`uninstall()` restores every binding.

Each span records name, start, end, parent span and pass id in flat
arrays. `layer_metrics()` turns the spans of one pass into the per-layer
metrics; a span's self time is its duration minus the time its children
cover.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("convex_geom", "fenchel", "zoo", "builder", "compactness", "stability", "cli")

# factories whose returned triples get their evaluators wrapped, with the
# layer the wrapped evaluators are charged to
_TRIPLE_FACTORIES = {
    "builder.build_noncompact": "builder",
    "builder.build_compact": "builder",
    "zoo.hat_rep_ex_2_1": "zoo",
    "zoo.circle_rep_ex_2_2": "zoo",
    "zoo.family_p_abs": "zoo",
    "compactness.convexify": "compactness",
}
_EVALUATORS = ("e_eval", "f_eval", "l_eval")
_GEOMETRY = ("proj_map", "steiner", "convex_hull", "distance")

# name -> unit of every metric layer_metrics() returns, in print order
LAYER_METRICS = {
    **{f"convex_geom.{f}.{k}": u for f in _GEOMETRY for k, u in (("calls", "count"), ("self_s", "s"))},
    "convex_geom.self_s": "s",
    "fenchel.conjugate_grid.calls": "count",
    "fenchel.conjugate_grid.self_s": "s",
    "fenchel.conjugate_pointwise.calls": "count",
    "fenchel.conjugate_pointwise.self_s": "s",
    "fenchel.conjugate_values.ns_per_pair": "ns",
    "fenchel.epi_sum.self_s": "s",
    "fenchel.build_epigraph.calls": "count",
    "fenchel.build_epigraph.self_s": "s",
    "fenchel.self_s": "s",
    "builder.e_table.slabs": "count",
    "builder.e_table.rows": "count",
    "builder.e_table.slab_p50_s": "s",
    "builder.e_table.slab_p90_s": "s",
    "builder.e_table.inside_ratio": "ratio",
    "builder.e_eval.single_calls": "count",
    "builder.verify_triple.s": "s",
    "builder.reconstruct_H.s": "s",
    "builder.self_s": "s",
    "zoo.check_HLC.s": "s",
    "zoo.check_LLC.s": "s",
    "zoo.check_MLC.s": "s",
    "zoo.self_s": "s",
    "compactness.lemma41_check.s": "s",
    "compactness.extract_lambda.s": "s",
    "compactness.detect_blc_failure.s": "s",
    "compactness.base_evals_per_control": "evals/control",
    "compactness.self_s": "s",
    "stability.representation_convergence.s": "s",
    "stability.triples_built": "count",
    "stability.self_s": "s",
    "cli.run.self_s": "s",
    "trace.spans": "count",
    "trace.accounted_s": "s",
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.pass_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.pairs: dict[int, int] = {}  # conjugate_values span -> nodes x points
        self.current_pass = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def traced(self, name: str, fn, after=None):
        """`fn` wrapped in a span called `name`; `after(span, args, result)`
        runs once the span has closed."""
        nid = self._name_id(name)
        names, parents, passes = self.name, self.parent, self.pass_id
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            passes.append(tracer.current_pass)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------ patches

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            old = container[key]
            container[key] = value
            self._undo.append(lambda: container.__setitem__(key, old))
        else:
            old = getattr(container, key)
            setattr(container, key, value)
            self._undo.append(lambda: setattr(container, key, old))

    def install(self) -> None:
        import hamrep.cli  # noqa: F401  (loads every traced module)

        package = [m for n, m in sorted(sys.modules.items()) if n == "hamrep" or n.startswith("hamrep.")]
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"hamrep.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.traced(name, obj, self._hook(name)))

        def replacement(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in package:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                new = replacement(obj)
                if new is not None:
                    self._set(ns, attr, new)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        new = replacement(val)
                        if new is not None:
                            self._set(obj, key, new)

        triple_cls = sys.modules["hamrep.builder"].RepresentationTriple
        if callable(getattr(triple_cls, "e_table", None)):
            self._set(triple_cls, "e_table", self.traced("builder.e_table", triple_cls.e_table))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _hook(self, name: str):
        layer = _TRIPLE_FACTORIES.get(name)
        if layer is not None:
            def wrap_evaluators(span, args, triple):
                for attr in _EVALUATORS:
                    fn = getattr(triple, attr, None)
                    if callable(fn):
                        try:
                            setattr(triple, attr, self.traced(f"{layer}.{attr}", fn))
                        except AttributeError:  # frozen triple: its calls stay untraced
                            pass
            return wrap_evaluators
        if name == "fenchel.conjugate_values":
            def count_pairs(span, args, result):
                values = getattr(args[0], "values", None) if len(args) == 2 else None
                if values is not None:  # other signatures leave ns_per_pair at 0
                    nodes = int(np.count_nonzero(np.isfinite(values)))
                    self.pairs[span] = nodes * int(np.size(args[1]))
            return count_pairs
        return None

    # ----------------------------------------------------------- analysis

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays (for writing out)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def layer_metrics(self, pass_no: int) -> dict[str, float]:
        """Every LAYER_METRICS entry for the spans of one pass."""
        s = self.spans()
        sel = np.nonzero(s["pass_id"] == pass_no)[0]
        if len(sel) == 0:
            return {k: 0.0 for k in LAYER_METRICS}
        # spans of one pass are contiguous, so re-index them from 0
        base = int(sel[0])
        name = s["name"][sel]
        parent = s["parent"][sel] - base
        has_parent = parent >= 0
        dur = s["end"][sel] - s["start"][sel]
        covered = np.zeros(len(sel))
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_t = dur - covered

        n_names = len(self.names)
        ids = self._ids
        self_by = np.bincount(name, weights=self_t, minlength=n_names)
        incl_by = np.bincount(name, weights=dur, minlength=n_names)
        layer_of = np.array([n.split(".")[0] for n in self.names])

        def is_(names: str | tuple) -> np.ndarray:
            want = [ids[n] for n in ((names,) if isinstance(names, str) else names) if n in ids]
            return np.isin(name, want)

        def parent_is(names) -> np.ndarray:
            out = np.zeros(len(sel), dtype=bool)
            out[has_parent] = is_(names)[parent[has_parent]]
            return out

        def total(arr, mask) -> float:
            return float(np.sum(arr[mask]))

        def inclusive(n: str) -> float:
            return float(incl_by[ids[n]]) if n in ids else 0.0

        m: dict[str, float] = {}
        for f in _GEOMETRY:
            mask = is_(f"convex_geom.{f}")
            m[f"convex_geom.{f}.calls"] = float(np.count_nonzero(mask))
            m[f"convex_geom.{f}.self_s"] = total(self_t, mask)
        layer_self = {layer: float(np.sum(self_by[layer_of == layer])) for layer in LAYERS}
        m["convex_geom.self_s"] = layer_self["convex_geom"]

        conj = is_("fenchel.conjugate_values")
        grid = conj & parent_is("fenchel.conjugate")
        point = conj & ~grid
        m["fenchel.conjugate_grid.calls"] = float(np.count_nonzero(grid))
        m["fenchel.conjugate_grid.self_s"] = total(self_t, grid)
        m["fenchel.conjugate_pointwise.calls"] = float(np.count_nonzero(point))
        m["fenchel.conjugate_pointwise.self_s"] = total(self_t, point)
        pairs = sum(self.pairs.get(int(i) + base, 0) for i in np.nonzero(conj)[0])
        m["fenchel.conjugate_values.ns_per_pair"] = total(self_t, conj) / pairs * 1e9 if pairs else 0.0
        m["fenchel.epi_sum.self_s"] = total(self_t, is_("fenchel.epi_sum"))
        m["fenchel.build_epigraph.calls"] = float(np.count_nonzero(is_("fenchel.build_epigraph")))
        m["fenchel.build_epigraph.self_s"] = total(self_t, is_("fenchel.build_epigraph"))
        m["fenchel.self_s"] = layer_self["fenchel"]

        # slabs: e_table spans that evaluated constructed-triple controls
        row = is_("builder.e_eval") & parent_is("builder.e_table")
        rows_per_table = np.bincount(parent[row], minlength=len(sel))
        slab = rows_per_table > 0
        projected = np.zeros(len(sel), dtype=bool)
        proj = is_("convex_geom.proj_map") & has_parent
        projected[parent[proj]] = True
        n_rows = int(np.count_nonzero(row))
        slab_s = dur[slab]
        m["builder.e_table.slabs"] = float(np.count_nonzero(slab))
        m["builder.e_table.rows"] = float(n_rows)
        m["builder.e_table.slab_p50_s"] = float(np.percentile(slab_s, 50)) if len(slab_s) else 0.0
        m["builder.e_table.slab_p90_s"] = float(np.percentile(slab_s, 90)) if len(slab_s) else 0.0
        m["builder.e_table.inside_ratio"] = (
            float(np.count_nonzero(row & ~projected)) / n_rows if n_rows else 0.0
        )
        m["builder.e_eval.single_calls"] = float(
            np.count_nonzero(is_("builder.e_eval") & ~parent_is("builder.e_table"))
        )
        m["builder.verify_triple.s"] = inclusive("builder.verify_triple")
        m["builder.reconstruct_H.s"] = inclusive("builder.reconstruct_H")
        m["builder.self_s"] = layer_self["builder"]

        for check in ("HLC", "LLC", "MLC"):
            m[f"zoo.check_{check}.s"] = inclusive(f"zoo.check_{check}")
        m["zoo.self_s"] = layer_self["zoo"]

        for fn in ("lemma41_check", "extract_lambda", "detect_blc_failure"):
            m[f"compactness.{fn}.s"] = inclusive(f"compactness.{fn}")
        packed = is_("compactness.e_eval")
        base_evals = parent_is("compactness.e_eval") & is_(
            tuple(f"{layer}.{attr}" for layer in ("builder", "zoo") for attr in _EVALUATORS)
        )
        n_packed = int(np.count_nonzero(packed))
        m["compactness.base_evals_per_control"] = (
            float(np.count_nonzero(base_evals)) / n_packed if n_packed else 0.0
        )
        m["compactness.self_s"] = layer_self["compactness"]

        m["stability.representation_convergence.s"] = inclusive("stability.representation_convergence")
        in_stability = layer_of[name] == "stability"
        built = 0
        for i in np.nonzero(is_(("builder.build_noncompact", "builder.build_compact")))[0]:
            j = parent[i]
            while j >= 0 and not in_stability[j]:
                j = parent[j]
            built += j >= 0
        m["stability.triples_built"] = float(built)
        m["stability.self_s"] = layer_self["stability"]

        m["cli.run.self_s"] = layer_self["cli"]
        m["trace.spans"] = float(len(sel))
        m["trace.accounted_s"] = float(np.sum(self_t))
        return {k: m[k] for k in LAYER_METRICS}
