"""Per-layer spans recorded from outside stratci.

A :class:`Tracer` replaces every module-level binding of a chosen function
in the loaded ``stratci`` modules (``check_paired`` is bound in ``core``,
``estimators`` and ``dp_ci``, for example) with a wrapper that records one
span: name, parent span, start and end.  Spans live in flat arrays in memory
and are written out once, at the end.  Self time is a span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  The public functions each stratci module
# calls in another module, the harness steps below them, the CLI entry
# point, and the RandomStream methods the mechanisms call per stratum.
TRACED = (
    ("randomness", "derive_stream", "randomness.derive_stream"),
    ("randomness", "RandomStream.child", "randomness.child"),
    ("randomness", "RandomStream.generator", "randomness.generator"),
    ("randomness", "gaussian", "randomness.gaussian"),
    ("mechanisms", "gaussian_mechanism", "mechanisms.gaussian_mechanism"),
    ("mechanisms", "sensitivities", "mechanisms.sensitivities"),
    ("dp_ci", "stratum_noise_public_sizes", "dp_ci.str_pub"),
    ("dp_ci", "population_noise_public_sizes", "dp_ci.pop_pub"),
    ("dp_ci", "stratum_noise_private_sizes", "dp_ci.str_priv"),
    ("dp_ci", "difference_ci", "dp_ci.difference_ci"),
    ("estimators", "non_private_ci", "estimators.non_private_ci"),
    ("estimators", "wald_interval", "estimators.wald_interval"),
    ("core", "check_paired", "core.check_paired"),
    ("core", "build_design", "core.build_design"),
    ("analysis", "width_ratio_report", "analysis.width_ratio_report"),
    ("simharness", "generate_population", "simharness.generate_population"),
    ("simharness", "draw_sample", "simharness.draw_sample"),
    ("simharness", "run_experiment", "simharness.run_experiment"),
    ("cli", "main", "cli"),
)


def _stratci_modules():
    return [m for name, m in list(sys.modules.items()) if name == "stratci" or name.startswith("stratci.")]


def rebind(original, replacement) -> list:
    """Point every stratci module attribute bound to ``original`` at ``replacement``.

    Returns (module, attribute, original) triples for :func:`restore`.
    """
    undo = []
    for module in _stratci_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans for the functions in :data:`TRACED` while installed.

    While installed it also counts, in ``ratio_warnings``, every
    ``RatioApproximationWarning`` that ``stratci.dp_ci`` raises.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._undo: list = []
        self._wrappers: list | None = None
        self.ratio_warnings: WarningCounter | None = None

    def _wrap(self, label: str, fn):
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Put the wrappers in place; they are made on the first call and reused."""
        if self._wrappers is None:
            self._wrappers = []
            for module_name, attr, label in TRACED:
                owner = sys.modules[f"stratci.{module_name}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = vars(owner)[attr]
                else:
                    original = getattr(owner, attr)
                    owner = None
                self._wrappers.append((owner, attr, original, self._wrap(label, original)))
            dp_ci = sys.modules["stratci.dp_ci"]
            self.ratio_warnings = WarningCounter(dp_ci.warnings, dp_ci.RatioApproximationWarning)
        for owner, attr, original, wrapper in self._wrappers:
            if owner is None:
                self._undo += rebind(original, wrapper)
            else:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
        dp_ci = sys.modules["stratci.dp_ci"]
        self._undo.append((dp_ci, "warnings", dp_ci.warnings))
        dp_ci.warnings = self.ratio_warnings

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.labels)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            label: {"calls": int(calls[i]), "ns": float(incl[i]), "self_ns": float(own[i])}
            for i, label in enumerate(self.labels)
        }

    def write(self, path) -> None:
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


class WarningCounter:
    """Stands in for the ``warnings`` module inside ``stratci.dp_ci``.

    Counts warnings of one category and passes every warning on unchanged,
    one stack level deeper so it is reported at the same place.
    """

    def __init__(self, real, category) -> None:
        self.real = real
        self._category = category
        self.count = 0

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is self._category:
            self.count += 1
        self.real.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, attr):
        return getattr(self.real, attr)
