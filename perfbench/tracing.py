"""Per-layer spans and solver counters recorded from outside the program.

Each public layer function is wrapped in the namespace that calls it
(e.g. ``fdjcas.experiments.jcas_optimize``, ``fdjcas.optimizer.ris_optimize``)
for the duration of a traced sweep; the program's own code is unchanged.
Spans are kept in memory as call counts, total time and self time (total
minus the time of wrapped calls made inside it).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module that calls the function, attribute) -> layer metric name
HOOKS = (
    ("fdjcas.cli", "run_scheme", "experiments.run_scheme"),
    ("fdjcas.cli", "emit_outputs", "experiments.emit_outputs"),
    ("fdjcas.experiments", "build_cell", "experiments.build_cell"),
    ("fdjcas.experiments", "build_scene", "geometry.build_scene"),
    ("fdjcas.experiments", "build_channel_set", "channels.build_channel_set"),
    ("fdjcas.experiments", "jcas_optimize", "optimizer.jcas_optimize"),
    ("fdjcas.experiments", "simulate_snapshots", "estimation.simulate_snapshots"),
    ("fdjcas.experiments", "music_estimate", "estimation.music_estimate"),
    ("fdjcas.optimizer", "precoder_update", "optimizer.precoder_update"),
    ("fdjcas.optimizer", "ris_quadratics", "optimizer.ris_quadratics"),
    ("fdjcas.optimizer", "ris_optimize", "optimizer.ris_optimize"),
    ("fdjcas.optimizer", "mmse_combiner", "optimizer.mmse_combiner"),
    ("fdjcas.optimizer", "dl_rate", "optimizer.dl_rate"),
    ("fdjcas.optimizer", "aoa_crb", "crb.aoa_crb"),
    ("fdjcas.optimizer", "build_sensing_context", "steering.build_sensing_context"),
    ("fdjcas.estimation", "build_sensing_context", "steering.build_sensing_context"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in HOOKS))
DEFAULT_MAX_RIS_ITER = 500


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and solver counters of one traced sweep."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(int)
        self.missing = []
        self._stack = []
        self._proposal = None

    # -- spans
    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - children[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- solver counters
    def _decide_proposal(self, phi):
        """The merit guard kept the last MM proposal iff the phase now in use is it."""
        if self._proposal is not None and phi is not None:
            self.counters["guard_decided"] += 1
            self.counters["guard_accepted"] += int(np.array_equal(np.asarray(phi), self._proposal))
        self._proposal = None

    def _before_jcas(self, args, kwargs):
        self._proposal = None

    def _after_jcas(self, args, kwargs, result):
        self._decide_proposal(result.ris_phase)
        config = _arg(args, kwargs, 2, "config")
        iters = len(result.trace) - 1
        self.counters["jcas_completed"] += 1
        self.counters["outer_iters"] += iters
        self.counters["outer_converged"] += int(iters < config.max_outer)

    def _before_precoder(self, args, kwargs):
        self._decide_proposal(_arg(args, kwargs, 3, "phi"))

    def _after_ris(self, args, kwargs, result):
        phi, values = result
        steps = len(values) - 1
        max_iter = _arg(args, kwargs, 4, "max_iter", DEFAULT_MAX_RIS_ITER)
        self.counters["mm_steps"] += steps
        self.counters["mm_capped"] += int(steps >= max_iter)
        self._proposal = np.array(phi, copy=True)

    def _after_emit(self, args, kwargs, paths):
        self.counters["emit_bytes"] += sum(os.path.getsize(p) for p in paths)

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        extra = {
            "optimizer.jcas_optimize": (self._before_jcas, self._after_jcas),
            "optimizer.precoder_update": (self._before_precoder, None),
            "optimizer.ris_optimize": (None, self._after_ris),
            "experiments.emit_outputs": (None, self._after_emit),
        }
        patched = []
        try:
            for module_name, attr, name in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                before, after = extra.get(name, (None, None))
                setattr(module, attr, self.wrap(name, original, before, after))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -- results
    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for the same seed."""
        counts = {f"{name}.calls": self.calls[name] for name in SPAN_NAMES}
        counts.update(self.counters)
        return counts

    def layer_metrics(self) -> dict:
        """Per-layer metric values of this sweep (times in ms)."""
        c = self.counters

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.ms"] = 1e3 * self.seconds[name]
        out["optimizer.jcas_optimize.self_ms"] = 1e3 * self.self_seconds["optimizer.jcas_optimize"]
        out["optimizer.mm_steps_per_call"] = frac(c["mm_steps"], self.calls["optimizer.ris_optimize"])
        out["optimizer.mm_cap_frac"] = frac(c["mm_capped"], self.calls["optimizer.ris_optimize"])
        out["optimizer.guard_accept_frac"] = frac(c["guard_accepted"], c["guard_decided"])
        out["optimizer.outer_iters_per_call"] = frac(c["outer_iters"], c["jcas_completed"])
        out["optimizer.converged_frac"] = frac(c["outer_converged"], c["jcas_completed"])
        out["experiments.emit_outputs.bytes"] = c["emit_bytes"]
        return out
