"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size (a few trials, unscreened inputs) and
requires it to end correct with no failed operation; then shows that each
output check rejects a deliberately corrupted syndrome, estimate, cut set,
degeneracy row or count, that a raising decode is counted as failed, and
that BENCHMARK.json is the one ``run.py --write-spec`` writes.  Exits 1 on
the first check that does not behave.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import checks
import run
from workloads import BY_NAME, ROOT, WORKLOADS, Decoder, import_program

TINY_TRIALS = 4


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        raise SystemExit(1)


def tiny(wl):
    return dataclasses.replace(wl, window=TINY_TRIALS, windows_per_round=1, pool_base=None)


def run_tiny(modules, wl) -> run.Runner:
    runner = run.Runner(modules, wl)
    runner.setup()
    runner.interleave_setup = True
    runner.round(run.Inputs(wl, seed=1).round(0))
    return runner


def decoded(modules, wl, want: set[str], limit: int = 400):
    """First trial of master seed 1 whose decode status is in ``want``."""
    dec = Decoder(modules, wl)
    for t in range(limit):
        sample, dc_seed = dec.sample(1, t)
        result = dec.decode(sample.syndrome, dc_seed)
        if result.status.value in want:
            return dec, t, sample, result
    raise SystemExit(f"no trial with status in {want} among {limit}")


def corrupted_trial_checks(modules, wl) -> None:
    decoder_name = wl.config["decoder"]
    post = {"bp-dc": {"converged-after-dc"}, "bp-osd": {"converged-after-osd"}}[decoder_name]
    dec, t, sample, result = decoded(modules, wl, post)
    view = checks.ModelView(dec.model)
    error = checks.sample_error(view.priors, 1, t)
    syndrome = checks.dense_vec(sample.syndrome)
    estimate = checks.dense_vec(result.estimate)
    status = result.status.value

    def trial_fails(err=error, syn=syndrome, est=estimate, st=status, cuts=result.cut_indices):
        return checks.check_trial(view, decoder_name, 1, t, err, syn, est, st, cuts)

    expect(trial_fails() == [], f"{wl.name}: real {status} trial passes every check")
    expect(np.array_equal(error, checks.dense_vec(sample.error)),
           f"{wl.name}: the independent Philox draw reproduces the sampled error")
    bad = syndrome.copy()
    bad[0] ^= 1
    expect(any("H e" in f for f in trial_fails(syn=bad)),
           f"{wl.name}: a flipped syndrome bit is rejected (syndrome != H e)")
    bad = estimate.copy()
    bad[int(np.flatnonzero(view.h[0])[0])] ^= 1
    expect(any("misses the syndrome" in f for f in trial_fails(est=bad)),
           f"{wl.name}: a corrupted {status} estimate is rejected")
    if decoder_name == "bp-osd":
        expect(any("bp-osd" in f for f in trial_fails(est=bad, st="failed")),
               f"{wl.name}: a bp-osd estimate must solve the syndrome whatever its status")
    else:
        expect(trial_fails(est=bad, st="failed") == [],
               f"{wl.name}: a failed bp-dc estimate may miss the syndrome")
        row0 = set(view.ddm_cols[: view.ddm_lengths[0]].tolist())
        short = frozenset(result.cut_indices) - row0
        expect(any("DC cut set" in f for f in trial_fails(cuts=short)),
               f"{wl.name}: a cut set that leaves DDM row 0 uncut is rejected")
    outcome = checks.rescore(view, error, estimate)
    logical = int(outcome == "logical")
    nonconv = int(outcome == "nonconvergent")
    expect(checks.check_counts([outcome], logical, nonconv, "x") == [],
           f"{wl.name}: re-scored counts match")
    expect(checks.check_counts([outcome], logical + 1, nonconv, "x") != [],
           f"{wl.name}: a corrupted logical count is rejected")
    expect(checks.check_counts([outcome], logical, nonconv + 1, "x") != [],
           f"{wl.name}: a corrupted nonconvergent count is rejected")
    if view.ddm_lengths is not None:
        expect(checks.check_ddm_trivial(view) == [], f"{wl.name}: DDM rows are trivial errors")
        view.ddm_cols = view.ddm_cols.copy()
        view.ddm_cols[0] = (view.ddm_cols[0] + 1) % view.h.shape[1]
        expect(checks.check_ddm_trivial(view) != [],
               f"{wl.name}: a corrupted DDM row is rejected")


def raising_decode_counts_as_failed(modules) -> None:
    wl = tiny(BY_NAME["cc-surface5-dc"])
    sim = modules[4]
    orig = sim.bp_dc_decode

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    sim.bp_dc_decode = broken
    try:
        runner = run_tiny(modules, wl)
    finally:
        sim.bp_dc_decode = orig
    expect(runner.failed == TINY_TRIALS and runner.failures,
           "a decode that raises fails its operations and the run")


def main() -> int:
    modules = import_program()
    for wl in WORKLOADS:
        runner = run_tiny(modules, tiny(wl))
        expect(not runner.failures and runner.failed == 0 and runner.attempted > 0,
               f"{wl.name}: tiny run, {runner.attempted} operations, all checks pass")
        expect(len(runner.latencies) == TINY_TRIALS, f"{wl.name}: one latency per trial")
    for wl in WORKLOADS:
        corrupted_trial_checks(modules, wl)
    raising_decode_counts_as_failed(modules)
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(committed == run.spec(), "BENCHMARK.json matches run.py --write-spec")
    return 0


if __name__ == "__main__":
    sys.exit(main())
