"""Outside-in tracing of advreplay's public functions.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records one span per call: layer, start, end and the enclosing span.  Every
call site in the engine looks these names up on their module (or class) at
call time, so patching the attribute reaches all callers.  Spans stay in
flat arrays until the run ends; ``summarize`` then derives, per layer, the
call count, inclusive seconds (outermost calls of that layer only) and self
seconds (span duration minus the time its child spans cover).
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter

LAYERS = (
    "runner.run_benchmark",
    "runner.stream_from_config",
    "data.make_task_stream",
    "data.load_csv",
    "train.train_initial",
    "train.run_task",
    "train.sgd_step",
    "train.compute_class_stats",
    "tensor.value_and_grad",
    "model.extract",
    "model.logits",
    "replay.build_candidate_set",
    "replay.adversarial_attack",
    "data.apply_policy",
    "calib.generate_drift_samples",
    "calib.fit_transfer_matrix",
    "calib.calibrate",
    "calib.decompose",
    "calib.tune_shrinkage",
    "calib.shrink_normalize",
    "classify.MahalanobisScorer.__init__",
    "classify.MahalanobisScorer.distances",
    "classify.predict",
    "model.save_checkpoint",
    "calib.save_store",
)

# Layers that only sequence other layers.  A span whose parent is one of
# these (or that has no parent) is an outermost operation; the dominant
# layer of a workload is the one whose outermost operations take the most time.
STRUCTURAL = frozenset({
    "runner.run_benchmark", "runner.stream_from_config",
    "train.train_initial", "train.run_task",
})

# The closer-fraction probe does extra forward passes; it gets a span of its
# own so that its cost lands neither in the attack nor in the attack's caller.
PROBE = "trace.closer_frac_probe"


def span_cost_s(calls: int = 100_000) -> float:
    """Seconds one traced call costs over a plain call, measured on a no-op.

    Tracing overhead is estimated as spans times this cost plus the probe
    time.  The other definition, traced minus untraced ``run_s``, needs a
    second full run and is swamped by the run-to-run spread on a shared host.
    """
    def noop():
        return None

    wrapped = Tracer()._wrap(0, noop, None)
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - started - plain) / calls)


class Tracer:
    """Spans and counters of one process's calls into the engine."""

    def __init__(self):
        self.names = list(LAYERS) + [PROBE]
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.step_intervals_s = array("d")
        self._open = -1
        self._last_step = (-1, 0.0)     # (enclosing span, time of last sgd_step return)
        self._patched = []

    # -- recording ----------------------------------------------------------------

    def _begin(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._open)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._open = idx
        return idx

    def _finish(self, idx: int) -> float:
        now = time.perf_counter()
        self.end[idx] = now
        self._open = self.parent[idx]
        return now

    def _wrap(self, layer_id: int, fn, after):
        def traced(*args, **kwargs):
            idx = self._begin(layer_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                now = self._finish(idx)
            if after is not None:
                after(idx, now, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- per-layer extras -----------------------------------------------------------

    def _rows(self, key: str, position: int):
        def after(idx, now, args, out):
            self.counters[key] += args[position].shape[0]
        return after

    def _file_bytes(self, key: str, position: int):
        def after(idx, now, args, out):
            self.counters[key] += os.path.getsize(args[position])
        return after

    def _step_return(self, idx, now, args, out):
        # intervals between successive sgd_step returns inside one training call
        parent = self.parent[idx]
        last_parent, last_time = self._last_step
        if parent == last_parent:
            self.step_intervals_s.append(now - last_time)
        self._last_step = (parent, now)

    def _closer_probe(self, extract):
        """Share of attacked rows whose frozen feature ended nearer its target.

        Uses the unwrapped ``extract`` so the probe's forward passes do not
        count as ``model.extract`` calls.
        """
        import numpy as np
        from advreplay.tensor import Tensor

        probe_id = self.names.index(PROBE)

        def after(idx, now, args, out):
            f_old, x, targets = args[0], args[1], args[2]
            x = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
            targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
            probe = self._begin(probe_id)
            try:
                before = np.linalg.norm(extract(f_old, Tensor(x)).data - targets, axis=1)
                after_ = np.linalg.norm(extract(f_old, out).data - targets, axis=1)
                self.counters["replay.adversarial_attack.rows"] += len(before)
                self.counters["replay.adversarial_attack.closer_rows"] += int(
                    np.count_nonzero(after_ < before))
            finally:
                self._finish(probe)
        return after

    # -- install / uninstall --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in ``LAYERS``; the engine must be importable."""
        extract = importlib.import_module("advreplay.model").extract
        extras = {
            "model.extract": self._rows("model.extract.rows", 1),
            "classify.predict": self._rows("classify.predict.rows", 3),
            "replay.adversarial_attack": self._closer_probe(extract),
            "data.load_csv": self._file_bytes("data.load_csv.bytes", 0),
            "calib.save_store": self._file_bytes("calib.save_store.bytes", 1),
            "train.sgd_step": self._step_return,
        }
        for layer_id, name in enumerate(LAYERS):
            module, *owners, attr = name.split(".")
            owner = importlib.import_module(f"advreplay.{module}")
            for part in owners:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer_id, fn, extras.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results ------------------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer calls, inclusive, self and outermost-operation seconds.

        Inclusive and outermost seconds leave out the time of probe spans
        nested in them, so the probe does not inflate the layers it sits in.
        """
        n = len(self.start)
        probe = self.names.index(PROBE)
        structural = {self.names.index(name) for name in STRUCTURAL}
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        probed = [0.0] * n
        for i in reversed(range(n)):  # a child's index is always above its parent's
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                probed[p] += probed[i] + (dur[i] if self.layer[i] == probe else 0.0)

        size = len(self.names)
        calls, incl, self_s, outer = [0] * size, [0.0] * size, [0.0] * size, [0.0] * size
        in_op = [False] * n  # span is, or lies inside, an outermost operation
        for i in range(n):
            lid, p = self.layer[i], self.parent[i]
            calls[lid] += 1
            self_s[lid] += dur[i] - child[i]
            nested = p >= 0 and in_op[p]
            in_op[i] = nested or lid not in structural
            if in_op[i] and not nested:
                outer[lid] += dur[i] - probed[i]
            q = p
            while q >= 0 and self.layer[q] != lid:
                q = self.parent[q]
            if q < 0:  # outermost call of this layer
                incl[lid] += dur[i] - probed[i]
        return {
            name: {"calls": calls[k], "s": incl[k], "self_s": self_s[k], "outer_s": outer[k]}
            for k, name in enumerate(self.names)
        }

    def write_spans(self, path) -> None:
        """Spans as CSV: span, parent, layer, start and end (perf_counter seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,layer,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.layer[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")
