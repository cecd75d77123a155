"""Span recorder and counters for the traced benchmark run.

Tracing wraps public waveinv functions from outside the package: each
function object is replaced under every name it is bound to in the waveinv
modules, because ``bench`` imports ``phase_objective_terms`` and friends by
name, ``cli`` imports the ``bench`` functions the same way, and
``signals.envelope`` calls ``signals.analytic_signal`` through its own module
globals.  Undoing the patch restores every binding.

Spans are kept in memory as ``[name, parent, start, end]`` rows and written
out at the end.  A span's self time is its duration minus the time covered
by its child spans (children never overlap: everything is single-threaded).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("signals", "forward", "optim", "stats", "bench", "cli")

#: Span name -> (module, public function).  ``phase_objective_terms`` and
#: ``cli.main`` are split by argument, see :func:`_span_name`.
TRACED = {
    "forward.forward_response": ("forward", "forward_response"),
    "forward.forward_jacobian": ("forward", "forward_jacobian"),
    "forward.excitation": ("forward", "excitation"),
    "signals.transform_pipeline": ("signals", "transform_pipeline"),
    "signals.envelope": ("signals", "envelope"),
    "signals.analytic_signal": ("signals", "analytic_signal"),
    "signals.write_signal_csv": ("signals", "write_signal_csv"),
    "signals.read_signal_csv": ("signals", "read_signal_csv"),
    "optim.optimize": ("optim", "optimize"),
    "optim.modified_lm_step": ("optim", "modified_lm_step"),
    "optim.bfgs_baseline": ("optim", "bfgs_baseline"),
    "optim.write_trace_csv": ("optim", "write_trace_csv"),
    "stats.lhs_sample": ("stats", "lhs_sample"),
    "stats.apply_marginals": ("stats", "apply_marginals"),
    "stats.gamma_inv_cdf": ("stats", "gamma_inv_cdf"),
    "bench.run_single": ("bench", "run_single"),
    "bench.make_objective": ("bench", "make_objective"),
    "bench.gen_refs": ("bench", "gen_refs"),
    "bench.surface_scan": ("bench", "surface_scan"),
    "bench.manifold_export": ("bench", "manifold_export"),
    "bench.write_refs": ("bench", "write_refs"),
    "bench.read_refs": ("bench", "read_refs"),
    "bench.write_batch": ("bench", "write_batch"),
    "bench.report": ("bench", "report"),
}
PHASE_SPANS = ("forward.phase_eval_jac", "forward.phase_eval")
CLI_SPANS = ("cli.main.gen-refs", "cli.main.optimize", "cli.main.report")
SPAN_NAMES = tuple(TRACED) + PHASE_SPANS + CLI_SPANS

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


def _module(name: str):
    return importlib.import_module(f"waveinv.{name}")


class Patch:
    """Rebind function objects in the waveinv modules; :meth:`undo` restores."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, fn, wrapper) -> None:
        for name in ("waveinv",) + tuple(f"waveinv.{m}" for m in MODULES):
            module = importlib.import_module(name)
            for attr in [a for a, v in vars(module).items() if v is fn]:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, fn))

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def run_timer(sink: list):
    """Append ``(optimizer, seconds)`` for every ``bench.run_single`` call."""
    original = _module("bench").run_single

    def timed(cfg, *args, **kwargs):
        t0 = perf_counter()
        try:
            return original(cfg, *args, **kwargs)
        finally:
            sink.append((cfg.optimizer, perf_counter() - t0))

    patch = Patch()
    patch.rebind(original, timed)
    try:
        yield sink
    finally:
        patch.undo()


@contextlib.contextmanager
def before_each_evaluation(callback):
    """Call ``callback()`` before every call of the objective callbacks that
    ``bench.make_objective`` returns."""
    original = _module("bench").make_objective

    def hooked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            callback()
            return fn(*args, **kwargs)

        return wrapper

    def make_objective(*args, **kwargs):
        evaluate, fg, counter, ref_norm = original(*args, **kwargs)
        return hooked(evaluate), hooked(fg), counter, ref_norm

    patch = Patch()
    patch.rebind(original, make_objective)
    try:
        yield
    finally:
        patch.undo()


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    if name == "forward.phase_objective_terms":
        need_jacobian = kwargs.get("need_jacobian", args[5] if len(args) > 5 else True)
        return PHASE_SPANS[0] if need_jacobian else PHASE_SPANS[1]
    if name == "cli.main":
        argv = args[0] if args else kwargs.get("argv") or []
        command = next((a for a in reversed(argv) if f"cli.main.{a}" in CLI_SPANS), "other")
        return f"cli.main.{command}"
    return name


class Recorder:
    """In-memory spans plus the FFT and objective-evaluation counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.evals = 0
        self.fft_calls = 0
        self.fft_bytes = 0
        self._eval_depth = 0

    def _wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [_span_name(name, args, kwargs), rec._stack[-1] if rec._stack else -1, perf_counter(), 0.0]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                rec._stack.pop()

        return wrapper

    def _counted(self, fn):
        """An objective callback whose calls count as evaluations; FFTs are
        attributed to evaluations only while one is running."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.evals += 1
            rec._eval_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec._eval_depth -= 1

        return wrapper

    def _fft(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if rec._eval_depth:
                rec.fft_calls += 1
                rec.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Trace every function in :data:`TRACED`, the split phase and CLI
        entry points, objective callbacks, and ``numpy.fft``."""
        patch = Patch()
        bench = _module("bench")
        make_objective = self._wrap("bench.make_objective", bench.make_objective)

        def counted_make_objective(*args, **kwargs):
            evaluate, fg, counter, ref_norm = make_objective(*args, **kwargs)
            return self._counted(evaluate), self._counted(fg), counter, ref_norm

        try:
            for name, (module, attr) in TRACED.items():
                fn = getattr(_module(module), attr)
                patch.rebind(fn, counted_make_objective if attr == "make_objective" else self._wrap(name, fn))
            forward, cli = _module("forward"), _module("cli")
            patch.rebind(forward.phase_objective_terms, self._wrap("forward.phase_objective_terms", forward.phase_objective_terms))
            patch.rebind(cli.main, self._wrap("cli.main", cli.main))
            for attr in FFT_FUNCTIONS:
                patch.set(np.fft, attr, self._fft(getattr(np.fft, attr)))
            yield self
        finally:
            patch.undo()

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {name: (0, 0.0, 0.0) for name in SPAN_NAMES}
        for (name, _, start, end), child in zip(self.spans, covered):
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + end - start, own + end - start - child)
        return totals

    def write(self, path: Path) -> None:
        """One CSV row per span: id, parent id (-1 at the top), name, and
        start/end seconds relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        lines = ["id,parent,name,start_s,end_s"]
        lines.extend(
            f"{i},{parent},{name},{start - origin:.9f},{end - origin:.9f}"
            for i, (name, parent, start, end) in enumerate(self.spans)
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
