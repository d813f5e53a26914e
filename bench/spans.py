"""Outside-in span recorder and the per-layer metrics derived from it.

``Recorder.install()`` wraps the public functions of each lgqfi layer under
the names their callers import them by (``from .bounds import build_report``
in ``cli`` is patched in ``lgqfi.cli``; the package namespace counts as a
caller too).  Calls inside one module stay unwrapped, except for the
functions in ``SELF_PATCHED``, whose calls are counted wherever they come
from.  No file of the package changes.

A span is ``[name, start, end, parent, attr]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``attr`` is a per-call key used for
the distinct-input ratios.  Keys are computed inside ``trace.*`` spans, so
their cost is charged to the tracer, not to the layer that called.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("models", "linalg", "spectral", "kernels", "response", "bounds",
          "protocols", "cli")

SELF_PATCHED = {
    "linalg": {"hermitian_eig"},
    "spectral": {"spectral_data", "correlator", "qfi"},
    "kernels": {"gamma", "gamma_p", "gamma_tilde", "hp_max"},
    "response": {"build_spectrum"},
    "bounds": {"build_report"},
    "cli": {"main"},
}

KERNEL_MAXIMA = ("kernels.gamma", "kernels.gamma_p", "kernels.gamma_tilde",
                 "kernels.hp_max")


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _spectral_key(sd) -> str:
    return _digest(sd.energies, sd.elements, sd.state.weights)


def _kernel_key(values: list) -> str:
    return repr(tuple(values))


# Per-call keys, computed from the call's arguments in parameter order.
ATTRS = {
    "linalg.hermitian_eig": lambda values: _digest(values[0].matrix),
    "kernels.gamma": _kernel_key,
    "kernels.gamma_p": _kernel_key,
    "kernels.gamma_tilde": _kernel_key,
    "kernels.hp_max": _kernel_key,
    "spectral.correlator": lambda values: int(np.size(values[1])),
    "response.build_spectrum": lambda values: _spectral_key(values[0]),
}


class Recorder:
    """Keeps spans in memory; ``spans`` is written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attr=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attr])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attr_of = ATTRS.get(name)
        signature = inspect.signature(fn) if attr_of is not None else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            attr = None
            if attr_of is not None:
                tracer = self._open("trace.attr")
                try:
                    bound = signature.bind(*args, **kwargs)
                    attr = attr_of(list(bound.arguments.values()))
                finally:
                    self._close(tracer)
            index = self._open(name, attr)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return spanned

    def install(self) -> None:
        """Patch every caller-visible name of each layer's public functions."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "lgqfi" or name.startswith("lgqfi.")}
        for layer in LAYERS:
            home = modules[f"lgqfi.{layer}"]
            for attr, fn in list(vars(home).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != home.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for mod in modules.values():
                    if mod is home and attr not in SELF_PATCHED.get(layer, ()):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced pass."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    attrs: dict[str, list] = {}
    tracer_s = 0.0
    for (name, _, _, _, attr), self_s in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        if layer == "trace":
            tracer_s += self_s
            continue
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        self_by_layer[layer] += self_s
        if attr is not None:
            attrs.setdefault(name, []).append(attr)

    def count(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def own(*names: str) -> float:
        return sum(self_by_name.get(n, 0.0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_calls(layer: str) -> int:
        return sum(c for n, c in calls.items() if n.startswith(layer + "."))

    eig_calls = count("linalg.hermitian_eig")
    kernel_calls = count(*KERNEL_MAXIMA)
    kernel_keys = {(n, a) for n in KERNEL_MAXIMA for a in attrs.get(n, ())}
    spectrum_calls = count("response.build_spectrum")
    return {
        "models.calls": layer_calls("models"),
        "models.self_s": self_by_layer["models"],
        "linalg.eig_calls": eig_calls,
        "linalg.eig_self_s": own("linalg.hermitian_eig"),
        "linalg.eig_distinct_ratio": ratio(len(set(attrs.get("linalg.hermitian_eig", ()))),
                                           eig_calls),
        "spectral.data_self_s": own("spectral.spectral_data"),
        "spectral.correlator_calls": count("spectral.correlator"),
        "spectral.correlator_points": sum(attrs.get("spectral.correlator", ())),
        "spectral.correlator_self_s": own("spectral.correlator"),
        "spectral.qfi_calls": count("spectral.qfi"),
        "spectral.qfi_self_s": own("spectral.qfi"),
        "kernels.calls": kernel_calls,
        "kernels.self_s": self_by_layer["kernels"],
        "kernels.distinct_ratio": ratio(len(kernel_keys), kernel_calls),
        "response.spectrum_calls": spectrum_calls,
        "response.spectrum_self_s": own("response.build_spectrum"),
        "response.spectrum_per_instance": ratio(
            spectrum_calls, len(set(attrs.get("response.build_spectrum", ())))),
        "bounds.report_calls": count("bounds.build_report"),
        "bounds.self_s": self_by_layer["bounds"],
        "protocols.calls": layer_calls("protocols"),
        "protocols.self_s": self_by_layer["protocols"],
        "cli.self_s": self_by_layer["cli"],
        "unattributed_s": wall_s - sum(self_by_layer.values()) - tracer_s,
        "trace.tracer_s": tracer_s,
    }


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced passes (counts repeat exactly)."""
    combined = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        combined[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return combined
