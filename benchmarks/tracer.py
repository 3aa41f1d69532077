"""Span tracer that times calls into the itercdma layers from outside.

The package imports its public functions by name (``pipeline`` holds its own
reference to ``estimator.ml_estimate``, ``estimator`` to
``solvers.solve_normal_equations``, and so on), so wrapping a function only
in its defining module would silently miss those call sites.  The tracer
therefore collects every public function defined in a layer module and
replaces it wherever the *same function object* appears in any loaded
``itercdma.*`` namespace, plus ``ChannelCodec.encode``/``decode``.  Every
replacement is undone on exit; no file under ``src/`` is touched.

Spans are kept in memory as ``[name, start, end, parent]`` rows.  A span's
self time is its duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("config", "system_model", "estimator", "solvers", "detector",
          "codec", "analysis", "rmt", "pipeline")

ROOT_SPAN = "bench.op"
RECEIVER_SPAN = "pipeline.run_iterative_receiver"


def layer_of(module_name: str) -> str | None:
    """``itercdma.codec.gcurve`` -> ``codec``; None outside the layers."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "itercdma" and parts[1] in LAYERS:
        return parts[1]
    return None


def _package_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "itercdma" or name.startswith("itercdma."))]


class Tracer:
    """Context manager installing identity-matched wrappers around layer calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rank_errors = 0
        self.gram_flop = 0.0
        self.conditions: list[float] = []
        self.codewords_decoded = 0
        self.receiver_feedback: list[tuple[int, int]] = []   # (receiver span, hash)
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "estimator.ml_estimate": self._on_ml_estimate,
            "estimator.decompose_error": self._on_decompose_error,
            "estimator.leave_one_out_estimates_fast": self._on_loo,
            "codec.decode": self._on_decode,
        }

    # ---- installation -------------------------------------------------

    def __enter__(self):
        from itercdma.codec import ChannelCodec

        targets = {}
        for modname, mod in _package_modules():
            layer = layer_of(modname)
            if layer is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == modname):
                    targets[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}"))
        for _, mod in _package_modules():
            for name, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for meth in ("encode", "decode"):
            orig = ChannelCodec.__dict__[meth]
            self._patches.append((ChannelCodec, meth, orig))
            setattr(ChannelCodec, meth, self.wrap(orig, f"codec.{meth}"))
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()
        return False

    def wrap(self, func, name):
        """``func`` recording a span called ``name`` around every call."""
        hook = self._hooks.get(name)
        counts_rank_errors = name.startswith("solvers.")
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if counts_rank_errors and type(exc).__name__ == "RankError":
                    self.rank_errors += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # ---- counters read at layer boundaries ----------------------------

    def _on_ml_estimate(self, args, kwargs, result):
        rows, cols = _stacked(args, kwargs, 0, "stacked").matrix.shape
        self.gram_flop += 2.0 * rows * cols * cols
        if result.solve_info is not None and result.solve_info.condition is not None:
            self.conditions.append(float(result.solve_info.condition))

    def _on_decompose_error(self, args, kwargs, result):
        if result.mode == "exact":        # only the exact split forms S_hat^T S_hat
            rows, cols = _stacked(args, kwargs, 2, "stacked_feedback").matrix.shape
            self.gram_flop += 2.0 * rows * cols * cols

    def _on_loo(self, args, kwargs, result):
        rows, cols = _stacked(args, kwargs, 0, "stacked").matrix.shape
        self.gram_flop += 2.0 * rows * cols * cols

    def _on_decode(self, args, kwargs, result):
        soft = args[1] if len(args) > 1 else kwargs["soft_llr"]
        self.codewords_decoded += int(soft.shape[0]) if soft.ndim == 2 else 1
        for idx in reversed(self.stack):
            if self.spans[idx][0] == RECEIVER_SPAN:
                self.receiver_feedback.append((idx, hash(result[1].tobytes())))
                break


def _stacked(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def receiver_iterations(tracer):
    """(iterations run, iterations that changed the feedback) per receiver call."""
    per_call: dict[int, list[int]] = {}
    for idx, feedback_hash in tracer.receiver_feedback:
        per_call.setdefault(idx, []).append(feedback_hash)
    out = []
    for hashes in per_call.values():
        changed = sum(a != b for a, b in zip(hashes, hashes[1:]))
        out.append((len(hashes) - 1, changed))
    return out
