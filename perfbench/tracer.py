"""Outside-in tracing of vacuumlab's layers.

The tracer patches the functions listed in ``LAYERS`` for the duration of
a traced pass and restores them afterwards; nothing under ``src/`` is
edited.  A function is patched in every vacuumlab module namespace that
binds it, because ``commutators``, ``vacuum``, ``pressure``, ``rates`` and
``energy`` each hold their own ``from .grids import mollify``.

Spans (name, start, end, parent) stay in memory until the run ends.  A
span's self time is its duration minus what its child spans cover.  A
layer's ``calls`` counts entries into it from outside (a ``dspace`` span
inside a ``grad`` span is one ``grids.fd`` call).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import vacuumlab  # noqa: F401  (loads every module the binding scan covers)

# span name -> the functions it covers, as (module, attribute or Class.method)
LAYERS = {
    "grids.mollify": [("vacuumlab.grids", "mollify")],
    "grids.make_mollifier": [("vacuumlab.grids", "make_mollifier")],
    "grids.fd": [("vacuumlab.grids", n) for n in ("ddt", "dspace", "grad", "div")],
    "grids.field_init": [("vacuumlab.grids", "Field.__init__")],
    "grids.align": [("vacuumlab.grids", "align"), ("vacuumlab.grids", "restrict")],
    "testfn.eval": [("vacuumlab.testfn", f"TestFunction.{n}")
                    for n in ("phi", "dt", "grad")],
    "synth.weierstrass_field": [("vacuumlab.synth", "weierstrass_field")],
    "synth.simple_wave": [("vacuumlab.synth", "simple_wave")],
    "vacuum.qns_check": [("vacuumlab.vacuum", "qns_check")],
    "vacuum.qns_mollifier_equivalence": [("vacuumlab.vacuum",
                                          "qns_mollifier_equivalence")],
    "vacuum.l1_ratio_lemma_check": [("vacuumlab.vacuum", "l1_ratio_lemma_check")],
    "vacuum.counterexample_blowup": [("vacuumlab.vacuum", "counterexample_blowup")],
    "vacuum.counterexample_field": [("vacuumlab.vacuum", "counterexample_field")],
    "commutators.energy_commutators": [("vacuumlab.commutators",
                                        "energy_commutators")],
    "pressure.pressure_commutator": [("vacuumlab.pressure", "pressure_commutator")],
    "energy.mollified_energy_balance": [("vacuumlab.energy",
                                         "mollified_energy_balance")],
    "energy.local_energy_residual": [("vacuumlab.energy", "local_energy_residual")],
    "energy.global_energy_balance_bounded": [("vacuumlab.energy",
                                              "global_energy_balance_bounded")],
    "rates.fit_rate": [("vacuumlab.rates", "fit_rate")],
    "cli.load_config": [("vacuumlab.cli", "load_config")],
    "cli.main": [("vacuumlab.cli", "main")],
    "numpy.fft": [("numpy.fft", "rfftn"), ("numpy.fft", "irfftn")],
    # span name gains the calling module: ndimage.convolve.grids / .vacuum
    "ndimage.convolve": [("scipy.ndimage", "convolve")],
    "ndimage.distance_transform": [("scipy.ndimage", "distance_transform_edt")],
}

# per-layer metric -> unit; every traced pass reports all of them
METRICS = {
    "grids.mollify.calls": "count",
    "grids.mollify.self_s": "s",
    "grids.mollify.fft_calls": "count",
    "grids.mollify.direct_calls": "count",
    "grids.mollify.node_work": "count",
    "grids.mollify.repeat_input_share": "ratio",
    "numpy.fft.transforms": "count",
    "numpy.fft.self_s": "s",
    "ndimage.convolve.grids.calls": "count",
    "ndimage.convolve.grids.self_s": "s",
    "grids.make_mollifier.calls": "count",
    "grids.make_mollifier.self_s": "s",
    "grids.make_mollifier.repeat_share": "ratio",
    "grids.fd.calls": "count",
    "grids.fd.self_s": "s",
    "grids.field_init.calls": "count",
    "grids.field_init.self_s": "s",
    "grids.field_init.bytes": "B",
    "grids.align.self_s": "s",
    "testfn.eval.calls": "count",
    "testfn.eval.self_s": "s",
    "testfn.eval.repeat_share": "ratio",
    "synth.weierstrass_field.self_s": "s",
    "synth.simple_wave.self_s": "s",
    "ndimage.convolve.vacuum.calls": "count",
    "ndimage.convolve.vacuum.self_s": "s",
    "ndimage.distance_transform.self_s": "s",
    "vacuum.qns_check.self_s": "s",
    "vacuum.qns_mollifier_equivalence.self_s": "s",
    "vacuum.l1_ratio_lemma_check.self_s": "s",
    "vacuum.counterexample_blowup.self_s": "s",
    "vacuum.counterexample_field.self_s": "s",
    "commutators.energy_commutators.self_s": "s",
    "pressure.pressure_commutator.self_s": "s",
    "energy.mollified_energy_balance.self_s": "s",
    "energy.local_energy_residual.self_s": "s",
    "energy.global_energy_balance_bounded.self_s": "s",
    "rates.fit_rate.calls": "count",
    "rates.fit_rate.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "B",
    "trace.overhead_s": "s",
}

# layers whose inputs are keyed to measure how often a pass repeats them
REPEAT_METRICS = {
    "grids.mollify": "grids.mollify.repeat_input_share",
    "grids.make_mollifier": "grids.make_mollifier.repeat_share",
    "testfn.eval": "testfn.eval.repeat_share",
}


def resolve(module: str, attr: str):
    """Return ``(owner, name, original)`` for a LAYERS entry."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if classes:
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def vacuumlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "vacuumlab" or n.startswith("vacuumlab."))]


def _content_key(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(memoryview(p) if hasattr(p, "__array__") else repr(p).encode())
    return h.hexdigest()


class Tracer:
    """Collects spans while installed (``with tracer:``)."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self._patches = []   # (owner, name, original)
        self._pass_start = 0
        self._counts = Counter()
        self._seen = defaultdict(set)
        self._mollify_paths = defaultdict(set)

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        modules = vacuumlab_modules()
        for span, targets in LAYERS.items():
            for module, attr in targets:
                owner, name, original = resolve(module, attr)
                traced = self._wrap(span, attr.rsplit(".", 1)[-1], original)
                self._patch(owner, name, original, traced)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._patch(mod, alias, original, traced)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        return False

    def _patch(self, owner, name, original, traced):
        self._patches.append((owner, name, original))
        setattr(owner, name, traced)

    def _wrap(self, span, func_name, fn):
        tracer = self
        signature = inspect.signature(fn) if span in REPEAT_METRICS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span
            if span == "ndimage.convolve":
                caller = sys._getframe(1).f_globals.get("__name__", "?")
                name = f"{span}.{caller.rsplit('.', 1)[-1]}"
            index = tracer._open(name)
            try:
                if span in REPEAT_METRICS:
                    tracer._note_input(span, func_name, signature, args, kwargs)
                if span in ("numpy.fft", "ndimage.convolve"):
                    tracer._note_path("fft" if span == "numpy.fft" else "direct")
                out = fn(*args, **kwargs)
                if span == "grids.field_init":
                    tracer._counts["grids.field_init.bytes"] += args[0].values.nbytes
                return out
            finally:
                tracer._close(index)

        return traced

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _note_input(self, span, func_name, signature, args, kwargs):
        """Key the call's inputs by content and count repeats (a child
        span, so hashing stays out of the layer's self time)."""
        index = self._open("trace.hash")
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            if span == "grids.mollify":
                field, kernel = arg["field"], arg["kernel"]
                self._counts["grids.mollify.node_work"] += (
                    field.grid.node_count * kernel.weights.size * field.components)
                key = _content_key(field.grid, field.values)
            elif span == "grids.make_mollifier":
                key = _content_key(tuple(arg.items()))
            else:  # testfn.eval: the test function, the evaluator, the grid
                fn = arg["self"]
                key = _content_key(fn.kind, fn.params, func_name, arg["grid"])
            self._counts[REPEAT_METRICS[span]] += key in self._seen[span]
            self._seen[span].add(key)
        finally:
            self._close(index)

    def _note_path(self, path: str) -> None:
        for index in reversed(self._stack):
            if self.spans[index][0] == "grids.mollify":
                self._mollify_paths[index].add(path)
                return

    # -- per-pass metrics --------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self._counts.clear()
        self._seen.clear()
        self._mollify_paths.clear()

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans since ``begin_pass``, except
        ``cli.report_bytes`` and ``trace.overhead_s``, which the caller
        measures."""
        first = self._pass_start
        spans = self.spans[first:]
        covered = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, parent) in enumerate(spans, first):
            self_s[name] += (end - start) - covered[i]
            if parent < first or self.spans[parent][0] != name:
                calls[name] += 1

        values = {}
        for metric in METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s":
                values[metric] = self_s[layer]
            elif stat == "calls":
                values[metric] = calls[layer]
        values["numpy.fft.transforms"] = calls["numpy.fft"]
        paths = [self._mollify_paths[i] for i, s in enumerate(spans, first)
                 if s[0] == "grids.mollify"]
        values["grids.mollify.fft_calls"] = sum("fft" in p for p in paths)
        values["grids.mollify.direct_calls"] = sum("direct" in p for p in paths)
        for span, metric in REPEAT_METRICS.items():
            values[metric] = self._counts[metric] / calls[span] if calls[span] else 0.0
        for metric in ("grids.mollify.node_work", "grids.field_init.bytes"):
            values[metric] = self._counts[metric]
        return values
