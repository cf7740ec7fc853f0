"""Per-layer tracing of ``nakayama`` from outside the library.

``Tracer.install`` replaces every public function of each layer module,
and the methods of ``KupischSeries``, by a timing wrapper.  The wrapper
is also put in every other namespace that holds the same function
object, such as ``ndgen.check_nct``, ``cluster.glue`` and the package
itself, so calls through re-imported names are seen too.  ``restore``
puts the originals back.

Each wrapper counts calls and adds the call's total and self time (total
minus the time of traced callees) to its function.  A few hooks read
arguments and results for the named counters and the growth-slope
samples, outside the measured time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

import nakayama

# The layers, in the order of the library's module table.
LAYERS = ("kupisch", "ar", "abutments", "tilting", "gluing", "cluster",
          "ndgen", "render", "cli")

# Functions whose active calls give context to calls beneath them.
CONTEXTS = ("ndgen.construct", "tilting.enumerate_tilting")


def _ind(K):
    """|Ind K|, the number of indecomposable modules."""
    return sum(K.entries)


def _on_init(tr, args, kwargs, result, dt):
    tr.samples["kupisch.init"].append((_ind(args[0]), dt))


def _on_gldim(tr, args, kwargs, result, dt):
    tr.samples["ar.gldim"].append((_ind(args[0]), dt))


def _on_fracturing(tr, args, kwargs, result, dt):
    tr.samples["tilting.fracturing"].append((_ind(args[0]), dt))


def _on_check_fractured(tr, args, kwargs, result, dt):
    tr.samples["cluster.check_fractured"].append((_ind(args[0]) * args[1], dt))
    tr.counts["cluster.ok"] += result.ok
    tr.counts["cluster.failures"] += len(result.failures)


def _on_generate_candidate(tr, args, kwargs, result, dt):
    tr.counts["cluster.candidate_size"] += len(result)


def _on_check_nct(tr, args, kwargs, result, dt):
    if tr.depth["ndgen.construct"]:
        tr.counts["ndgen.verifications"] += 1


def _on_construct(tr, args, kwargs, result, dt):
    tr.samples["ndgen.construct"].append((_ind(result.kupisch) * result.n, dt))


def _on_is_tilting(tr, args, kwargs, result, dt):
    if tr.depth["tilting.enumerate_tilting"]:
        tr.counts["tilting.enumerate.tested"] += 1


def _on_enumerate_tilting(tr, args, kwargs, result, dt):
    tr.counts["tilting.enumerate.found"] += len(result)


def _on_render(tr, args, kwargs, result, dt):
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    fmt = spec.format if spec is not None else "ascii"
    tr.counts[f"render.{fmt}.ns"] += dt
    tr.counts["render.bytes"] += len(result)


HOOKS = {
    "kupisch.KupischSeries.__init__": _on_init,
    "ar.gldim": _on_gldim,
    "tilting.projective_injective_fracturing": _on_fracturing,
    "tilting.is_tilting": _on_is_tilting,
    "tilting.enumerate_tilting": _on_enumerate_tilting,
    "cluster.check_fractured": _on_check_fractured,
    "cluster.generate_candidate": _on_generate_candidate,
    "cluster.check_nct": _on_check_nct,
    "ndgen.construct": _on_construct,
    "render.render": _on_render,
}


def slope(samples):
    """Least-squares slope of log(time) against log(size); 0.0 when the
    sizes do not spread."""
    pts = [(math.log(s), math.log(t)) for s, t in samples if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Tracer:
    def __init__(self):
        self.stats = {}  # "layer.function" -> [calls, total ns, self ns]
        self.counts = Counter()
        self.samples = defaultdict(list)  # slope name -> [(size, ns)]
        self.depth = Counter()
        self._stack = []  # traced time of callees, one slot per active call
        self._undo = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0, 0])
        stack, depth, clock = self._stack, self.depth, time.perf_counter_ns
        hook = HOOKS.get(key)
        ctx = key in CONTEXTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ctx:
                depth[key] += 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if ctx:
                    depth[key] -= 1
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
            if hook:
                t1 = clock()
                hook(self, args, kwargs, result, dt)
                if stack:  # keep the hook out of the caller's self time
                    stack[-1] += clock() - t1
            return result

        return traced

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        modules = [importlib.import_module(f"nakayama.{layer}")
                   for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        series = modules[0].KupischSeries
        for name, obj in list(vars(series).items()):
            if inspect.isfunction(obj) and (name == "__init__"
                                            or not name.startswith("_")):
                self._patch(series, name,
                            self._wrap(f"kupisch.KupischSeries.{name}", obj))
        for mod in [nakayama] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- derived metrics ------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, (0, 0, 0))[0]

    def seconds(self, key):
        return self.stats.get(key, (0, 0, 0))[1] / 1e9

    def metrics(self):
        """Per-layer metrics by name; the caller adds the ones measured
        around the traced pass (overhead, CLI output bytes)."""
        c = self.counts
        out = {f"{layer}.self_s": sum(v[2] for k, v in self.stats.items()
                                      if k.split(".")[0] == layer) / 1e9
               for layer in LAYERS}
        init = "kupisch.KupischSeries.__init__"
        out.update({
            "kupisch.init.calls": self.calls(init),
            "kupisch.init.s": self.seconds(init),
            "kupisch.init.slope": slope(self.samples["kupisch.init"]),
            "kupisch.check_exists.calls":
                self.calls("kupisch.KupischSeries.check_exists"),
            "kupisch.exists.calls": self.calls("kupisch.KupischSeries.exists"),
        })
        for name in ("syzygy", "cosyzygy", "tau_n", "tau_n_inv"):
            out[f"ar.{name}.calls"] = self.calls(f"ar.{name}")
        fracturing = "tilting.projective_injective_fracturing"
        found = c["tilting.enumerate.found"]
        tested = max(c["tilting.enumerate.tested"], found)
        checks = self.calls("cluster.check_fractured")
        out.update({
            "ar.gldim.s": self.seconds("ar.gldim"),
            "ar.gldim.slope": slope(self.samples["ar.gldim"]),
            "ar.ar_quiver.s": self.seconds("ar.ar_quiver"),
            "abutments.foundation.calls": self.calls("abutments.foundation"),
            "abutments.footing_to_ka.calls":
                self.calls("abutments.footing_to_ka"),
            "tilting.fracturing.s": self.seconds(fracturing),
            "tilting.fracturing.slope":
                slope(self.samples["tilting.fracturing"]),
            "tilting.is_tilting.calls": self.calls("tilting.is_tilting"),
            "tilting.enumerate_tilting.s":
                self.seconds("tilting.enumerate_tilting"),
            "tilting.enumerate_tilting.yield":
                found / tested if tested else 0.0,
            "cluster.generate_candidate.s":
                self.seconds("cluster.generate_candidate"),
            "cluster.check_fractured.s": self.seconds("cluster.check_fractured"),
            "cluster.check_fractured.slope":
                slope(self.samples["cluster.check_fractured"]),
            "cluster.candidate_size.mean":
                c["cluster.candidate_size"]
                / max(self.calls("cluster.generate_candidate"), 1),
            "cluster.ok_ratio": c["cluster.ok"] / max(checks, 1),
            "cluster.failures_per_check": c["cluster.failures"] / max(checks, 1),
            "ndgen.construct.s": self.seconds("ndgen.construct"),
            "ndgen.construct.slope": slope(self.samples["ndgen.construct"]),
            "ndgen.verifications_per_cert":
                c["ndgen.verifications"] / max(self.calls("ndgen.construct"), 1),
            "gluing.glue.calls": self.calls("gluing.glue"),
            "gluing.check_glue_invariants.s":
                self.seconds("gluing.check_glue_invariants"),
            "gluing.dispatch_check.s": self.seconds("gluing.dispatch_check"),
            "render.bytes": c["render.bytes"],
        })
        for fmt in ("ascii", "dot", "tikz", "json"):
            out[f"render.{fmt}.s"] = c[f"render.{fmt}.ns"] / 1e9
        return out
