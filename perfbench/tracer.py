"""Spans around the calls into each evolveq module, recorded from outside.

The program has no timers of its own, so the tracer patches the public
functions listed in TRACED. A function re-bound elsewhere by
``from .x import f`` lives under several names; `Tracer.install` captures
every original first and then replaces each binding that is the original
object, in every loaded ``evolveq`` module. Patching the home module first
and looking the function up again afterwards would find the wrapper, and
the later bindings would silently stay untraced.

Spans are kept in memory: name, parent span, start, end and the time
covered by child spans. The tracer is single-threaded; the benchmark runs
the CLI with ``--threads 1``.
"""
from __future__ import annotations

import importlib
import os
import sys
import time

# (module, attribute path) of every traced callable. A dotted path names a
# method, patched on its class; `SlabPropagator.build` is a classmethod.
TRACED = [
    ("presets", "get_preset"),
    ("presets", "resolved_constants"),
    ("spaces", "GalerkinSpace.v_norms"),
    ("fem", "heat_matrix"),
    ("forms", "FormFamily.matrix"),
    ("forms", "build_step_form"),
    ("forms", "estimate_constants"),
    ("propagator", "SlabPropagator.build"),
    ("propagator", "solve"),
    ("propagator", "oracle_solve"),
    ("mr", "mr_norms"),
    ("mr", "check_chain_rule"),
    ("mr", "check_product_rule"),
    ("mr", "check_lemma3"),
    ("mr", "check_lemma_indepmax"),
    ("mr", "check_H_estimate"),
    ("convergence", "refine"),
    ("convergence", "trajectory_l2v_diff"),
    ("convergence", "trajectory_suph_diff"),
    ("invariance", "check_criterion"),
    ("invariance", "check_criterion_symmetric"),
    ("invariance", "audit_trajectory"),
    ("invariance", "ConvexSet.distance"),
    ("cli", "write_csv"),
    ("cli", "main"),
]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path in TRACED]
        self.spans = []          # (name index, parent span or -1, start, end, child s)
        self.solve_points = []   # slab count of each solve call's subdivision
        self.oracle_steps = 0
        self.csv_bytes = 0
        self._stack = []         # [span index, child seconds] of the open spans
        self._restore = []       # (owner, attribute, original) to put back
        self._extras = {"propagator.solve": self._on_solve,
                        "propagator.oracle_solve": self._on_oracle_solve,
                        "cli.write_csv": self._on_write_csv}

    def _on_solve(self, args, kwargs):
        self.solve_points.append(_arg(args, kwargs, 1, "subdivision").n_slabs)

    def _on_oracle_solve(self, args, kwargs):
        self.oracle_steps += int(_arg(args, kwargs, 1, "n_steps"))

    def _on_write_csv(self, args, kwargs):
        self.csv_bytes += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def reset(self):
        self.spans.clear()
        self.solve_points.clear()
        self.oracle_steps = self.csv_bytes = 0

    def _wrap(self, index, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = self._extras.get(self.names[index])

        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            frame = [span, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[span] = (index, parent, start, end, frame[1])
                if extra is not None:
                    extra(args, kwargs)

        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = {mod: importlib.import_module(f"evolveq.{mod}") for mod, _ in TRACED}
        functions, methods = {}, []
        for index, (mod, path) in enumerate(TRACED):
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(modules[mod], cls_name)
                methods.append((index, cls, attr, cls.__dict__[attr]))
            else:
                functions[id(getattr(modules[mod], path))] = index
        # Capture every original above before patching anything below.
        wrappers = {}
        for mod in [m for m in sys.modules.values()
                    if getattr(m, "__name__", "").startswith("evolveq")]:
            for attr, value in list(vars(mod).items()):
                index = functions.get(id(value))
                if index is None:
                    continue
                if index not in wrappers:
                    wrappers[index] = self._wrap(index, value)
                self._restore.append((mod, attr, value))
                setattr(mod, attr, wrappers[index])
        for index, cls, attr, raw in methods:
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(index, raw.__func__))
            else:
                patched = self._wrap(index, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def summary(self):
        """Per traced name: calls, inclusive seconds and self seconds."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for index, _parent, start, end, child in self.spans:
            row = out[self.names[index]]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child
        return out
