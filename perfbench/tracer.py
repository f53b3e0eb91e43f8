"""Per-layer tracing of maserline from outside the package.

The layers are the package modules ``steady``, ``averages``, ``linewidth``,
``regression``, ``uniform`` and ``cli``.  ``Tracer.install`` replaces every
public function of those modules (plus ``cli._emit`` and the
``TrigAverages`` methods) with a wrapper that records a span, and rebinds
every name under which any ``maserline`` module holds the original, so a
call through ``from .steady import steady_state`` is traced too.
``SidebandGenerator.apply`` is wrapped with a counter only: it runs 10^5
times per spectrum.

Each span is added to per-name totals in memory as it ends.  A span's
self time is its duration minus the time of the spans it caused.  The one
callback in the traced code, the ``evaluate`` function that
``linewidth_lindblad_trace`` passes to ``refine_until_stable``, runs in a
span of the caller that passed it, so its time counts for the caller's
layer.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("steady", "averages", "linewidth", "regression", "uniform", "cli")
TRIG_METHODS = ("cos_cos", "sin_sin", "sin_cos", "pump_gain", "one_minus_cos_diff")
SIZES = (200, 4000, 20000)
PRIVATE_SPANS = ("cli._emit",)
CALLBACK_SPANS = ("averages.refine_until_stable",)  # spans that take a function argument


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # [span name, time of child spans]
        self._restore = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _within(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name, fn, hook=None):
        callbacks = name in CALLBACK_SPANS

        def traced(*args, **kwargs):
            caller = self._parent() if callbacks else None
            if caller is not None:
                # time spent in a callback belongs to the span that supplied it
                args = [self._callback(caller, a) if inspect.isfunction(a) else a for a in args]
                kwargs = {k: self._callback(caller, a) if inspect.isfunction(a) else a
                          for k, a in kwargs.items()}
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
            if hook is not None:
                hook(args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _callback(self, name, fn):
        def called_back(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._stack[-1][1] += elapsed
                self.self_time[name] += elapsed - frame[1]

        return called_back

    def _per_size(self, name, size, elapsed):
        self.counts[f"{name}.N{size}.calls"] += 1
        self.counts[f"{name}.N{size}.seconds"] += elapsed

    # -- hooks: counts taken where the work happens, read from results ----------

    def _hooks(self):
        def steady_state(args, stats, elapsed):
            p = stats.p
            self._per_size("steady.steady_state", stats.N, elapsed)
            self.counts["steady.N_max"] = max(self.counts["steady.N_max"], stats.N)
            self.counts["steady.support_levels"] += int(np.count_nonzero(p >= 1e-16 * p.max()))
            self.counts["steady.levels"] += p.size

        def recurrence_ratios(args, ratios, elapsed):
            if self._parent() == "steady.auto_truncation":
                self.counts["steady.auto_truncation.levels_tried"] += ratios.size

        def pump_weights(args, weights, elapsed):
            self._per_size("linewidth.pump_weights", weights[0].size - 1, elapsed)

        def build_sideband_generator(args, gen, elapsed):
            self._per_size("regression.build_sideband_generator", gen.N, elapsed)

        def quadrature_nodes(args, nodes, elapsed):
            self.counts["averages.quadrature_nodes.nodes"] += nodes.taus.size
            if self._parent() == "averages.refine_until_stable":
                self.counts["averages.refine_until_stable.rungs"] += 1

        def jump_operator_matrices(args, ops, elapsed):
            self.counts["linewidth.jump_operator_matrices.matrices"] += len(ops)
            if ops and self._within("linewidth.linewidth_lindblad_trace"):
                # the trace loop does 8 dense dim x dim products per jump matrix,
                # each 2 dim^3 flops over 3 dim^2 doubles
                dim = ops[0].shape[0]
                self.counts["linewidth.trace.flops_computed"] += len(ops) * 8 * 2 * dim**3
                self.counts["linewidth.trace.bytes_computed"] += len(ops) * 8 * 3 * dim * dim * 8

        return {
            "steady.steady_state": steady_state,
            "steady.steady_state_exp": steady_state,
            "steady.recurrence_ratios": recurrence_ratios,
            "linewidth.pump_weights": pump_weights,
            "regression.build_sideband_generator": build_sideband_generator,
            "averages.quadrature_nodes": quadrature_nodes,
            "linewidth.jump_operator_matrices": jump_operator_matrices,
        }

    def _trig_hook(self, args, values, elapsed):
        try:
            nodes = args[0].point_data[0].size
        except ValueError:  # closed-form averages: one evaluation per level
            nodes = 1
        self.counts["averages.trig.evals"] += nodes * np.size(values)

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions wherever the package binds them."""
        hooks = self._hooks()
        replacement = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"maserline.{layer}"]
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and f"{layer}.{attr}" not in PRIVATE_SPANS:
                    continue
                name = f"{layer}.{attr}"
                replacement[id(fn)] = self._wrap(name, fn, hooks.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name == "maserline" or module_name.startswith("maserline."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replacement and inspect.isfunction(value):
                        self._replace(module, attr, replacement[id(value)])

        averages = sys.modules["maserline.averages"]
        for method in TRIG_METHODS:
            original = vars(averages.TrigAverages).get(method)
            if original is not None:
                traced = self._wrap("averages.trig", original, self._trig_hook)
                self._replace(averages.TrigAverages, method, traced)

        generator = sys.modules["maserline.regression"].SidebandGenerator
        apply = generator.apply

        def counted_apply(gen, v):
            if self._parent() == "regression.correlate":
                self.counts["regression.correlate.gen_applies"] += 1
            return apply(gen, v)

        self._replace(generator, "apply", counted_apply)

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def spans(self) -> set[str]:
        return {name for name, n in self.calls.items() if n}

    def layer_metrics(self, passes: int, rows_out: int, bytes_out: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics: name -> (value, unit).

        ``rows_out`` and ``bytes_out`` are what the CLI printed in one pass.
        """
        c = self.counts

        def self_ms(*names):
            return 1e3 * sum(self.self_time[n] for n in names) / passes, "ms"

        def per_pass(key):
            return c[key] / passes, "count"

        def us_per_call(name, size):
            calls = c[f"{name}.N{size}.calls"]
            return (1e6 * c[f"{name}.N{size}.seconds"] / calls if calls else 0.0), "us"

        cli_spans = [n for n in self.self_time if n.startswith("cli.") and n != "cli._emit"]
        out = {
            "steady.auto_truncation.self_ms": self_ms("steady.auto_truncation"),
            "steady.auto_truncation.levels_tried": per_pass("steady.auto_truncation.levels_tried"),
            "steady.recurrence_ratios.self_ms": self_ms("steady.recurrence_ratios"),
            "steady.statistics_from_ratios.self_ms": self_ms("steady.statistics_from_ratios"),
            "steady.steady_state.self_ms": self_ms("steady.steady_state", "steady.steady_state_exp"),
            "steady.N_max": (c["steady.N_max"], "count"),
            "steady.support_frac": (c["steady.support_levels"] / c["steady.levels"] if c["steady.levels"] else 0.0, "frac"),
        }
        for name in ("steady.steady_state", "linewidth.pump_weights", "regression.build_sideband_generator"):
            for size in SIZES:
                out[f"{name}.N{size}.us_per_call"] = us_per_call(name, size)
        out.update({
            "averages.trig.self_ms": self_ms("averages.trig", "averages.exp_average_trig"),
            "averages.trig.evals": per_pass("averages.trig.evals"),
            "averages.refine_until_stable.rungs": per_pass("averages.refine_until_stable.rungs"),
            "averages.quadrature_nodes.nodes": per_pass("averages.quadrature_nodes.nodes"),
            "linewidth.pump_weights.self_ms": self_ms("linewidth.pump_weights"),
            "linewidth.mcgowan_weights.self_ms": self_ms("linewidth.mcgowan_weights"),
            "linewidth.linewidth_components.self_ms": self_ms("linewidth.linewidth_components"),
            "linewidth.linewidth_lindblad_trace.self_ms": self_ms("linewidth.linewidth_lindblad_trace"),
            "linewidth.jump_operator_matrices.self_ms": self_ms("linewidth.jump_operator_matrices"),
            "linewidth.jump_operator_matrices.matrices": per_pass("linewidth.jump_operator_matrices.matrices"),
            "linewidth.trace.flops_computed": (c["linewidth.trace.flops_computed"] / passes, "flop"),
            "linewidth.trace.bytes_computed": (c["linewidth.trace.bytes_computed"] / passes, "B"),
            "regression.correlate.self_ms": self_ms("regression.correlate"),
            "regression.correlate.gen_applies": per_pass("regression.correlate.gen_applies"),
            "regression.spectral_decomposition.self_ms": self_ms("regression.spectral_decomposition"),
            "regression.spectral_decomposition.errors": per_pass("regression.spectral_decomposition.errors"),
            "regression.spectrum_and_fwhm.self_ms": self_ms("regression.spectrum_and_fwhm"),
            "regression.build_sideband_generator.self_ms": self_ms("regression.build_sideband_generator"),
            "regression.linewidth_from_slope.self_ms": self_ms("regression.linewidth_from_slope"),
            "uniform.build_uniform_lindblad.self_ms": self_ms("uniform.build_uniform_lindblad"),
            "uniform.uniform_steady_state.self_ms": self_ms("uniform.uniform_steady_state"),
            "uniform.uniform_generator.self_ms": self_ms("uniform.uniform_generator"),
            "uniform.uniform_linewidth.self_ms": self_ms("uniform.uniform_linewidth"),
            "cli.self_ms": self_ms(*cli_spans),
            "cli.emit.self_ms": self_ms("cli._emit"),
            "cli.rows_out": (rows_out, "count"),
            "cli.bytes_out": (bytes_out, "B"),
        })
        return out
