"""Decoder benchmark: trial throughput, decode latency and per-layer cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # rewrite BENCHMARK.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured in whole rounds for about
``--seconds`` (set-up time is the median of its repetitions); with ``--trace 1`` they are the per-layer ones, from one
round decoded untraced and then traced, so their counts are exact.  Run reports and spans go to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer
from workloads import (
    BY_NAME,
    ROOT,
    SRC,
    WORKLOADS,
    Decoder,
    MissingProgramError,
    experiment_config,
    import_program,
    pipeline_name,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
POOLS = HERE / "pools.json"

END_TO_END = (
    ("trials_per_s", "trials/s", "higher", 0.25),
    ("decode_ms_p50", "ms", "lower", 0.25),
    ("decode_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("bp.calls", "count", "lower"),
    ("bp.iterations", "count", "lower"),
    ("bp.edge_updates", "count", "lower"),
    ("bp.busy_s", "s", "lower"),
    ("bp.converged_ratio", "ratio", "higher"),
    ("bp.us_per_iter", "us", "lower"),
    ("bp.ns_per_edge", "ns", "lower"),
    ("dc.calls", "count", "lower"),
    ("dc.busy_s", "s", "lower"),
    ("dc.cuts", "count", "lower"),
    ("dc.rescued_ratio", "ratio", "higher"),
    ("osd.calls", "count", "lower"),
    ("osd.busy_s", "s", "lower"),
    ("osd.ms_per_call", "ms", "lower"),
    ("decode.self_s", "s", "lower"),
    ("gf2.mat_vec_t_calls", "count", "lower"),
    ("gf2.mat_vec_t_s", "s", "lower"),
    ("gf2.bitvec_conv_s", "s", "lower"),
    ("noise.sample_s", "s", "lower"),
    ("sim.score_s", "s", "lower"),
    ("detmodel.build_s", "s", "lower"),
    ("bp.graph_build_s", "s", "lower"),
    ("sim.pool_efficiency", "ratio", "higher"),
    ("sim.fail_logical", "count", "lower"),
    ("sim.fail_nonconv", "count", "lower"),
    ("detmodel.cols", "count", "lower"),
    ("detmodel.nnz", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

SETUP_REPS = 5  # before the first round; end-to-end runs add one after every window
SELECT_TRIES = 200_000


def spec() -> dict:
    """The benchmark's BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 40,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --------------------------------------------------------------------------
# inputs: which windows (master seeds) a round decodes
# --------------------------------------------------------------------------


def _profile(status: str, iters: list[int]) -> tuple:
    it = np.asarray(iters, dtype=float)
    return (
        {c: status.count(c) for c in "dfo"},
        it.mean(),
        float(np.percentile(it, 50)),
        float(np.percentile(it, 90)),
    )


def select_windows(wl, pool: dict, rng: random.Random) -> list[int]:
    """Draw windows whose joint mix matches the pool's.

    Decode cost is bimodal (a trial that needs post-processing costs 10-50x
    one that BP solves), so an unconstrained draw of ~100 trials moves
    throughput and the latency quantiles by 15-40% from seed to seed.  The
    draw is kept only when its count of each post-processed outcome equals
    the pool's share of the draw size, and its mean, median and 90th
    percentile of BP iterations lie within a few percent of the pool's.
    """
    windows = pool["windows"]
    n = wl.window * wl.windows_per_round
    all_status = "".join(w["status"] for w in windows)
    all_iters = [i for w in windows for i in w["iters"]]
    counts, mean, p50, p90 = _profile(all_status, all_iters)
    want = {c: round(k * n / len(all_status)) for c, k in counts.items()}
    per_window = [{c: w["status"].count(c) for c in "dfo"} for w in windows]
    for _ in range(SELECT_TRIES):
        pick = rng.sample(range(len(windows)), wl.windows_per_round)
        if any(sum(per_window[j][c] for j in pick) != want[c] for c in "dfo"):
            continue
        _, m, q50, q90 = _profile(
            "".join(windows[j]["status"] for j in pick),
            [i for j in pick for i in windows[j]["iters"]],
        )
        if abs(m / mean - 1) < 0.02 and abs(q50 / p50 - 1) < 0.03 and abs(q90 / p90 - 1) < 0.02:
            return [windows[j]["seed"] for j in pick]
    raise RuntimeError(f"{wl.name}: no window draw matches the pool; rerun screen.py")


class Inputs:
    """The master seeds of each round, as a function of --seed alone."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.pool = json.loads(POOLS.read_text())[wl.name] if wl.pool_base is not None else None
        if self.pool is not None and (
            self.pool["config"] != wl.config or self.pool["window"] != wl.window
        ):
            raise RuntimeError(f"{wl.name}: pools.json was screened for another config")

    def round(self, r: int) -> list[int]:
        if self.pool is None:
            base = ((self.seed & 0xFFFFFFFF) << 24) | (r << 8)
            return [base | j for j in range(self.wl.windows_per_round)]
        return select_windows(self.wl, self.pool, random.Random(f"{self.wl.name}/{self.seed}/{r}"))


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


class Capture:
    """Times every call of the workload's pipeline that ``sim`` makes and
    keeps its syndrome and result for the output checks."""

    def __init__(self, sim, name: str):
        self.sim, self.name = sim, name
        self.calls: list[tuple] = []  # (syndrome, result, seconds)

    def __enter__(self):
        self.orig = getattr(self.sim, self.name)
        calls, orig = self.calls, self.orig

        def timed(h, *args, **kwargs):
            t0 = time.perf_counter()
            out = orig(h, *args, **kwargs)
            calls.append((args[1] if self.name == "bp_dc_decode" else args[0], out,
                          time.perf_counter() - t0))
            return out

        setattr(self.sim, self.name, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.sim, self.name, self.orig)
        return False


class Runner:
    def __init__(self, modules, wl):
        self.modules = modules
        self.sim = modules[4]
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.rounds: list[dict] = []  # per round: trials, throughput wall, latencies
        self.counts = [0, 0]  # logical, nonconvergent from run_trials
        self.setup_times: list[tuple] = []  # (total, model build, BpDecoder) per rep
        self.interleave_setup = False

    def setup_rep(self):
        """Time one set-up: model build plus BpDecoder construction."""
        bp, sim = self.modules[0], self.sim
        cfg = experiment_config(sim, self.wl, seed=0, trials=1)
        gc.collect()  # every repetition starts from the same heap
        t0 = time.perf_counter()
        model = sim.build_model(cfg)
        t1 = time.perf_counter()
        bp.BpDecoder(model.check_matrix, cfg.bp_variant, cfg.min_sum_scale)
        t2 = time.perf_counter()
        self.setup_times.append((t2 - t0, t1 - t0, t2 - t1))
        return model

    def setup(self) -> None:
        for _ in range(SETUP_REPS):
            model = self.setup_rep()
        self.decoder = Decoder(self.modules, self.wl, model)
        self.view = checks.ModelView(model)
        self.fail(checks.check_ddm_trivial(self.view), 0)

    def after_window(self) -> None:
        """Set-up repetitions spread over the run sample the machine's
        speed at many moments, not only at the start."""
        if self.interleave_setup:
            self.setup_rep()

    def setup_summary(self) -> dict:
        """Median of each set-up time over all repetitions."""
        total, build, graph = zip(*self.setup_times)
        return {
            "setup_s": statistics.median(total),
            "detmodel.build_s": statistics.median(build),
            "bp.graph_build_s": statistics.median(graph),
            "reps": len(total),
        }

    def fail(self, messages: list[str], trials: int) -> None:
        self.failures.extend(messages)
        self.failed += trials if messages else 0

    def warm_up(self) -> None:
        for t in range(2 if self.wl.pool_base is not None else 50):
            sample, dc_seed = self.decoder.sample(0, t)
            self.decoder.decode(sample.syndrome, dc_seed)

    def _check_calls(self, master_seed: int, calls: list[tuple]) -> list[str]:
        """Per-trial checks on captured decodes of one window; their outcomes."""
        outcomes = []
        decoder = self.wl.config["decoder"]
        for t, (syndrome, result, _) in enumerate(calls):
            error = checks.sample_error(self.view.priors, master_seed, t)
            estimate = checks.dense_vec(result.estimate)
            msgs = checks.check_trial(
                self.view, decoder, master_seed, t, error, checks.dense_vec(syndrome),
                estimate, result.status.value, result.cut_indices,
            )
            self.fail(msgs, 1)
            outcomes.append(checks.rescore(self.view, error, estimate))
        return outcomes

    def run_trials(self, seeds: list[int], threads: int, capture: bool) -> float:
        """run_trials once per window; returns the summed wall time."""
        wall = 0.0
        for m in seeds:
            cfg = experiment_config(self.sim, self.wl, m, self.wl.window, threads)
            cap = Capture(self.sim, pipeline_name(self.wl)) if capture else None
            self.attempted += self.wl.window
            try:
                with cap or contextlib.nullcontext():
                    t0 = time.perf_counter()
                    stats = self.sim.run_trials(cfg, self.decoder.model)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # a raising trial fails its whole window
                self.fail([f"run_trials seed {m}: {exc!r}"], self.wl.window)
                continue
            wall += dt
            self.counts[0] += stats.failures_logical
            self.counts[1] += stats.failures_nonconvergent
            if cap:
                self.latencies.extend(c[2] for c in cap.calls)
                outcomes = self._check_calls(m, cap.calls)
                self.fail(checks.check_counts(
                    outcomes, stats.failures_logical, stats.failures_nonconvergent,
                    f"run_trials seed {m}"), self.wl.window)
            else:
                self.pending_counts.append((m, stats))
            self.after_window()
        return wall

    def latency_pass(self, seeds: list[int]) -> float:
        """Single-process pipeline calls on the windows' trials; re-scores
        them against the counts of the pooled run_trials."""
        wall = 0.0
        pending = {m: s for m, s in self.pending_counts}
        for m in seeds:
            calls = []
            for t in range(self.wl.window):
                self.attempted += 1
                sample, dc_seed = self.decoder.sample(m, t)
                try:
                    t0 = time.perf_counter()
                    result = self.decoder.decode(sample.syndrome, dc_seed)
                    dt = time.perf_counter() - t0
                except Exception as exc:
                    self.fail([f"decode {m}:{t}: {exc!r}"], 1)
                    continue
                wall += dt
                calls.append((sample.syndrome, result, dt))
            self.latencies.extend(c[2] for c in calls)
            outcomes = self._check_calls(m, calls)
            if m in pending and len(calls) == self.wl.window:
                s = pending.pop(m)
                self.fail(checks.check_counts(
                    outcomes, s.failures_logical, s.failures_nonconvergent,
                    f"pooled run_trials seed {m}"), self.wl.window)
            self.after_window()
        return wall

    def round(self, seeds: list[int]) -> None:
        """Throughput pass, then (for a pooled workload) the latency pass."""
        self.pending_counts = []
        pooled = self.wl.threads > 1
        first = len(self.latencies)
        wall = self.run_trials(seeds, self.wl.threads, capture=not pooled)
        if pooled:
            self.latency_pass(seeds)
        self.rounds.append({
            "trials": len(seeds) * self.wl.window, "wall": wall,
            "latencies": self.latencies[first:],
        })


def peak_rss_mb(pooled: bool) -> float:
    """Peak RSS of this process plus, for a pooled workload, that of its
    largest finished worker.  Children are counted only then: the
    launcher's own children (a version-manager shim, say) would add a few
    MB that depend on how the benchmark was started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pooled else 0
    return (own + child) / 1024.0


def latency_quantiles(seconds: list[float]) -> dict:
    lat_ms = np.asarray(seconds) * 1e3
    if not lat_ms.size:
        return {"decode_ms_p50": 0.0, "decode_ms_p90": 0.0}
    p50, p90 = np.percentile(lat_ms, [50, 90])
    return {"decode_ms_p50": float(p50), "decode_ms_p90": float(p90)}


def end_to_end(runner: Runner, inputs: Inputs, seconds: float) -> tuple[dict, dict]:
    runner.setup()
    runner.warm_up()
    runner.interleave_setup = True
    start = time.perf_counter()
    r = 0
    last = 0.0
    while r == 0 or (time.perf_counter() - start) + last <= seconds:
        t0 = time.perf_counter()
        runner.round(inputs.round(r))
        last = time.perf_counter() - t0
        r += 1
    setup = runner.setup_summary()
    # Pooled over the whole run, not a median of per-round figures: the
    # machine's speed changes in phases lasting several rounds, and a
    # median of rounds then snaps to one phase or the other.
    trials = sum(rd["trials"] for rd in runner.rounds)
    wall = sum(rd["wall"] for rd in runner.rounds)
    metrics = {
        "trials_per_s": trials / wall if wall else 0.0,
        **latency_quantiles(runner.latencies),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb(runner.wl.threads > 1),
    }
    per_round = [
        {"trials_per_s": rd["trials"] / rd["wall"] if rd["wall"] else 0.0,
         **latency_quantiles(rd["latencies"])}
        for rd in runner.rounds
    ]
    extra = {"rounds": per_round, "latency_samples": len(runner.latencies), "setup": setup}
    return metrics, extra


def per_layer(runner: Runner, inputs: Inputs, modules) -> tuple[dict, dict, object]:
    """One round untraced, the same round traced, and for a pooled
    workload the same round pooled."""
    runner.setup()
    setup = runner.setup_summary()
    runner.warm_up()
    seeds = inputs.round(0)
    runner.pending_counts = []
    w0 = runner.run_trials(seeds, 1, capture=True)
    runner.counts = [0, 0]
    tracer = Tracer(modules)
    with tracer:
        w1 = runner.run_trials(seeds, 1, capture=True)
    fail_counts = list(runner.counts)
    workers = runner.wl.threads
    wp = w0
    if workers > 1:
        wp = runner.run_trials(seeds, workers, capture=False)
        runner.latency_pass(seeds)
    s = tracer.summary()
    c = tracer.counts

    def busy(name):
        return s.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    bp_calls = calls("bp.decode")
    iters = c["bp.iterations"]
    edges = c["bp.edge_updates"]
    dc_calls = calls("dc.cut")
    osd_calls = calls("osd.osd0")
    model = runner.decoder.model
    metrics = {
        "bp.calls": bp_calls,
        "bp.iterations": int(iters),
        "bp.edge_updates": int(edges),
        "bp.busy_s": busy("bp.decode"),
        "bp.converged_ratio": c["bp.converged"] / bp_calls if bp_calls else 0.0,
        "bp.us_per_iter": busy("bp.decode") / iters * 1e6 if iters else 0.0,
        "bp.ns_per_edge": busy("bp.decode") / edges * 1e9 if edges else 0.0,
        "dc.calls": dc_calls,
        "dc.busy_s": busy("dc.cut"),
        "dc.cuts": int(c["dc.cuts"]),
        "dc.rescued_ratio": (
            c["decode.status.converged-after-dc"] / dc_calls if dc_calls else 0.0
        ),
        "osd.calls": osd_calls,
        "osd.busy_s": busy("osd.osd0"),
        "osd.ms_per_call": busy("osd.osd0") / osd_calls * 1e3 if osd_calls else 0.0,
        "decode.self_s": s.get("decode", {}).get("self_s", 0.0),
        "gf2.mat_vec_t_calls": calls("gf2.mat_vec_t"),
        "gf2.mat_vec_t_s": busy("gf2.mat_vec_t"),
        "gf2.bitvec_conv_s": busy("gf2.bitvec_conv"),
        "noise.sample_s": busy("noise.sample"),
        "sim.score_s": busy("sim.score"),
        "detmodel.build_s": setup["detmodel.build_s"],
        "bp.graph_build_s": setup["bp.graph_build_s"],
        "sim.pool_efficiency": w0 / (workers * wp) if wp else 0.0,
        "sim.fail_logical": fail_counts[0],
        "sim.fail_nonconv": fail_counts[1],
        "detmodel.cols": model.check_matrix.cols,
        "detmodel.nnz": model.check_matrix.nnz,
        "trace.overhead_s": w1 - w0,
        "trace.coverage": sum(v["self_s"] for v in s.values()) / w1 if w1 else 0.0,
    }
    extra = {
        "untraced_s": w0, "traced_s": w1,
        "pooled_s": wp if workers > 1 else None, "setup": setup, "spans": s,
    }
    return metrics, extra, tracer


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata() -> dict:
    return {
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        modules = import_program()
    except (MissingProgramError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = BY_NAME[args.workload]
    inputs = Inputs(wl, args.seed)
    runner = Runner(modules, wl)
    tracer = None
    if args.trace:
        metrics, extra, tracer = per_layer(runner, inputs, modules)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, extra = end_to_end(runner, inputs, args.seconds)
        units = {n: u for n, u, _, _ in END_TO_END}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": min(runner.failed, runner.attempted),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "meta": metadata(), "result": result, "failures": runner.failures[:50], **extra,
    }
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    for line in runner.failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for n in units:
        print(f"{n:24s} {metrics[n]:>16.6g} {units[n]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
