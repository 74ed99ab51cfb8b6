"""Span tracing from outside the program.

The tracer swaps public functions of ``qldpc_dc`` for wrappers that record
one span per call (name, start, end, parent span, trial), including the
names other modules import them under, and restores the originals on exit.
Spans stay in memory until ``write``.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module attribute path, span name).  Several paths may share a span name:
# sim and noise call mat_vec_t and the pipelines under their own names.
TARGETS = (
    ("sim.run_trials", "sim.run_trials"),
    ("sim.build_model", "detmodel.build"),
    ("sim.check_success", "sim.score"),
    ("sim.mat_vec_t", "gf2.mat_vec_t"),
    ("noise.mat_vec_t", "gf2.mat_vec_t"),
    ("gf2.mat_vec_t", "gf2.mat_vec_t"),
    ("gf2.solve", "gf2.solve"),
    ("gf2.BitVec.from_dense", "gf2.bitvec_conv"),
    ("gf2.BitVec.to_dense", "gf2.bitvec_conv"),
    ("noise.make_trial", "noise.sample"),
    ("bp.TannerGraph.__init__", "bp.graph_build"),
    ("bp.BpDecoder.decode", "bp.decode"),
    ("postproc.dc_cut_indices", "dc.cut"),
    ("postproc.osd0_decode", "osd.osd0"),
    ("postproc.bp_dc_decode", "decode"),
    ("sim.bp_dc_decode", "decode"),
    ("postproc.bp_osd_decode", "decode"),
    ("sim.bp_osd_decode", "decode"),
)


class Tracer:
    """Records spans and per-call counters while installed."""

    def __init__(self, modules):
        bp, gf2, noise, postproc, sim = modules
        self.modules = {"bp": bp, "gf2": gf2, "noise": noise, "postproc": postproc, "sim": sim}
        self.spans: list[tuple] = []  # (name, start, end, parent index, trial)
        self.counts: dict[str, float] = defaultdict(float)
        self.trial = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _resolve(self, path: str):
        head, *rest = path.split(".")
        owner = self.modules[head]
        for part in rest[:-1]:
            owner = getattr(owner, part)
        return owner, rest[-1]

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = self._observe

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.trial)
            observe(name, args, out)
            return out

        return traced

    def _observe(self, name, args, out):
        """Counters read from the arguments and results of a traced call."""
        c = self.counts
        if name == "bp.decode":
            dec = args[0]
            c["bp.iterations"] += out.iterations_used
            c["bp.edge_updates"] += dec.v2c_edge_updates + dec.c2v_edge_updates
            c["bp.converged"] += out.converged
        elif name == "dc.cut":
            c["dc.cuts"] += len(out)
        elif name == "decode":
            c["decode.status." + out.status.value] += 1

    def __enter__(self):
        def trial_rng(master_seed, trial_index, _orig=self.modules["noise"].trial_rng):
            self.trial = (master_seed, trial_index)
            return _orig(master_seed, trial_index)

        self._patch(self.modules["noise"], "trial_rng", trial_rng)
        for path, name in TARGETS:
            owner, attr = self._resolve(path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(owner, attr, self._wrap(name, raw))
        return self

    def _patch(self, owner, attr, value):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self.trial = None
        return False

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "trial": trial}
                ) + "\n")
