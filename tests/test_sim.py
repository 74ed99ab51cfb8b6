"""Monte Carlo harness tests: scoring, determinism, output formats."""

import concurrent.futures
import csv
import dataclasses
import io

import numpy as np
import pytest

from qldpc_dc import bp, noise, sim
from qldpc_dc.bp import MIN_SUM, BpDecoder
from qldpc_dc.codes import build_rotated_surface
from qldpc_dc.gf2 import BitVec, in_rowspace, mat_vec_t
from qldpc_dc.postproc import DcConfig, SecondRunPriors, osd0_decode
from qldpc_dc.sim import (
    ExperimentConfig,
    Outcome,
    check_success,
    intervals_overlap,
    run_trials,
    wilson_interval,
)


class TestCheckSuccess:
    def setup_method(self):
        self.code = build_rotated_surface(3)

    def test_exact_match(self):
        e = BitVec.from_support(9, [1, 4])
        assert check_success(e, e, self.code.hz, self.code.oz) is Outcome.SUCCESS

    def test_stabilizer_offset_is_success(self):
        e = BitVec.from_support(9, [4])
        est = e ^ BitVec.from_support(9, self.code.hx.row(0))
        assert check_success(e, est, self.code.hz, self.code.oz) is Outcome.SUCCESS

    def test_logical_offset_fails(self):
        e = BitVec.from_support(9, [4])
        est = e ^ BitVec.from_support(9, self.code.ox.row(0))
        assert (
            check_success(e, est, self.code.hz, self.code.oz)
            is Outcome.LOGICAL_FAILURE
        )

    def test_syndrome_mismatch_is_nonconvergent(self):
        e = BitVec.from_support(9, [4])
        est = BitVec.from_support(9, [0])
        assert (
            check_success(e, est, self.code.hz, self.code.oz)
            is Outcome.NONCONVERGENT
        )

    def test_agrees_with_rowspace_on_all_small_cosets(self):
        # exhaustive cross-check on d=3: outcome-based scoring must agree
        # with the residual-in-rowspace(H_X) rule whenever syndromes match
        e = BitVec.from_support(9, [2, 3])
        s = mat_vec_t(e, self.code.hz)
        for bits in range(1 << 9):
            est = BitVec(9, bits)
            outcome = check_success(e, est, self.code.hz, self.code.oz)
            if mat_vec_t(est, self.code.hz) != s:
                assert outcome is Outcome.NONCONVERGENT
            elif in_rowspace(est ^ e, self.code.hx):
                assert outcome is Outcome.SUCCESS
            else:
                assert outcome is Outcome.LOGICAL_FAILURE


CIRCUIT_T3 = ExperimentConfig(code="bb:6,6", noise="circuit-bb", p=0.01, decoder="bp-dc-osd",
                              trials=1, seed=16, rounds=3, dc_second_priors="reset")


def test_scoring_equals_two_syndrome_formula():
    """Scoring the residual ``error ^ estimate`` once per matrix gives the
    outcome of comparing the estimate's syndrome with the error's, on
    random pairs over a circuit model: random estimates, estimates off by
    sums of degeneracy rows and OSD-0 estimates of the error's syndrome."""
    model = sim.build_model(CIRCUIT_T3)
    h, obs, ddm = model.check_matrix, model.observables, model.degeneracy_matrix
    rng = np.random.default_rng(16)

    def reference(error, estimate):
        if mat_vec_t(estimate, h) != mat_vec_t(error, h):
            return Outcome.NONCONVERGENT
        if mat_vec_t(error ^ estimate, obs).weight():
            return Outcome.LOGICAL_FAILURE
        return Outcome.SUCCESS

    seen = set()
    for k in range(90):
        error = noise.sample_error(model.priors, rng)
        if k % 3 == 0:
            estimate = noise.sample_error(model.priors, rng)
        elif k % 3 == 1:
            trivial = BitVec.zeros(h.cols)
            for i in np.flatnonzero(rng.random(ddm.rows) < 0.1).tolist():
                trivial ^= BitVec.from_support(h.cols, ddm.row(i))
            estimate = error ^ trivial
        else:
            estimate = osd0_decode(h, mat_vec_t(error, h), rng.random(h.cols))
        outcome = check_success(error, estimate, h, obs)
        assert outcome is reference(error, estimate)
        seen.add(outcome)
    assert seen == set(Outcome)


def test_trial_builds_no_row_bitmasks():
    """Products read column bitmasks only: building a circuit model,
    sampling, decoding through DC and OSD-0, and scoring a trial leave every
    matrix's row bitmasks unbuilt."""
    model = sim.build_model(CIRCUIT_T3)
    sample = noise.make_trial(model, noise.trial_rng(CIRCUIT_T3.seed, 0))
    result = sim.decode(
        "bp-dc-osd", BpDecoder(model.check_matrix, MIN_SUM, 1.0), sample.syndrome,
        model.priors, 5, model.degeneracy_matrix, DcConfig(SecondRunPriors.RESET_TO_PRIOR, 1),
    )
    check_success(sample.error, result.estimate, model.check_matrix, model.observables)
    for m in (model.check_matrix, model.observables, model.degeneracy_matrix):
        assert m._row_bits is None


class TestWilson:
    def test_zero_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 200)
        assert lo <= 37 / 200 <= hi

    def test_overlap_helper(self):
        assert intervals_overlap((0.1, 0.2), (0.15, 0.3))
        assert not intervals_overlap((0.1, 0.2), (0.25, 0.3))


class TestRunTrials:
    def test_near_zero_rate_no_failures(self):
        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=1e-9 + 1e-12,
            decoder="bp", trials=100, seed=0,
        )
        stats = run_trials(cfg)
        assert stats.failures_logical == 0 and stats.failures_nonconvergent == 0
        assert stats.ci_low == 0.0

    def test_failure_decomposition(self):
        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.05,
            decoder="bp", trials=500, seed=1,
        )
        stats = run_trials(cfg)
        assert stats.failures_logical + stats.failures_nonconvergent <= stats.trials
        assert stats.failure_rate == pytest.approx(
            (stats.failures_logical + stats.failures_nonconvergent) / stats.trials
        )

    def test_bit_reproducible(self):
        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.05,
            decoder="bp-dc", dc_second_priors="posterior", trials=400, seed=7,
        )
        assert run_trials(cfg) == run_trials(cfg)

    def test_threads_do_not_change_results(self):
        base = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.05,
            decoder="bp-osd", trials=300, seed=3,
        )
        wide = ExperimentConfig(**{**base.__dict__, "threads": 3})
        assert run_trials(base) == run_trials(wide)

    def test_pool_decodes_the_given_model(self):
        """Workers must decode the model handed to run_trials, not one
        rebuilt from the config."""
        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.05,
            decoder="bp-osd", trials=120, seed=4,
        )
        built = sim.build_model(cfg)
        model = dataclasses.replace(built, priors=np.full(built.priors.shape, 0.15))
        single = run_trials(cfg, model)
        pooled = run_trials(dataclasses.replace(cfg, threads=2), model)
        assert pooled == single
        assert single != run_trials(cfg, built)

    def test_pool_workers_inherit_the_kernel_layout(self, monkeypatch):
        """Once a decode in this process has built the check matrix's graph
        and kernel layout, neither an in-process block nor a forked worker
        builds either again, and the pooled counts equal the in-process
        ones."""
        if bp.min_sum_kernel() != "c":
            pytest.skip("the compiled min-sum kernel is not available")
        cfg = ExperimentConfig(
            code="surface:3", noise="pheno", p=0.03, rounds=2, decoder="bp-osd",
            bp_variant="min-sum", trials=24, seed=9,
        )
        model = sim.build_model(cfg)
        h = model.check_matrix
        BpDecoder(h, MIN_SUM).decode(BitVec.zeros(h.rows), model.priors, 5)
        assert "min_sum_graph" in vars(h._graph)

        def rebuilt(*args, **kwargs):
            raise AssertionError("the graph or its kernel layout was built again")

        monkeypatch.setattr(bp, "TannerGraph", rebuilt)
        monkeypatch.setattr(bp, "_MinSumGraph", rebuilt)
        single = run_trials(cfg, model)
        assert run_trials(dataclasses.replace(cfg, threads=2), model) == single
        assert single.failures_logical + single.failures_nonconvergent > 0

    @pytest.mark.parametrize("cpus,workers", [(4, 4), (64, 20), (None, 1)])
    def test_pool_never_exceeds_blocks_or_cpus(self, monkeypatch, cpus, workers):
        """A huge ``threads`` opens a pool of min(blocks, CPUs) workers.  A
        fake executor runs each block inline, so no process is started."""
        opened = []

        class InlineExecutor:
            def __init__(self, max_workers, initializer, initargs):
                opened.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.05,
            decoder="bp-osd", trials=20, seed=3,
        )
        single = run_trials(cfg)
        monkeypatch.setattr(sim, "_worker_model", None)
        monkeypatch.setattr(sim.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        assert run_trials(dataclasses.replace(cfg, threads=10**6)) == single
        assert opened == [workers]  # 20 trials make 20 one-trial blocks

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_validated(self, threads):
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(
                code="surface:3", noise="code-capacity", p=0.05,
                decoder="bp", trials=10, seed=0, threads=threads,
            )

    def test_sanity_bound_below_physical_rate(self):
        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.05,
            decoder="bp-osd", trials=2000, seed=5,
        )
        stats = run_trials(cfg)
        assert 0 < stats.failure_rate < 0.05

    @pytest.mark.parametrize("field", ["noise", "decoder", "bp_variant", "dc_second_priors",
                                       "dc_masking"])
    def test_choice_fields_validated(self, field):
        fields = dict(code="surface:3", noise="code-capacity", p=0.05, decoder="bp",
                      trials=10, seed=0)
        with pytest.raises(ValueError, match=f"{field} must be one of .*'bogus'"):
            ExperimentConfig(**{**fields, field: "bogus"})

    def test_dc_requires_priors_choice(self):
        with pytest.raises(ValueError, match="dc_second_priors"):
            ExperimentConfig(
                code="surface:3", noise="code-capacity", p=0.05,
                decoder="bp-dc", trials=10, seed=0,
            )

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_min_sum_scale_validated_as_the_decoder_does(self, scale):
        with pytest.raises(ValueError, match="min_sum_scale must be a finite number > 0, got "):
            ExperimentConfig(
                code="surface:3", noise="code-capacity", p=0.05,
                decoder="bp", trials=10, seed=0, min_sum_scale=scale,
            )

    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                code="surface:3", noise="code-capacity", p=0.6,
                decoder="bp", trials=10, seed=0,
            )

    def test_pheno_noise_pipeline(self):
        cfg = ExperimentConfig(
            code="surface:3", noise="pheno", p=0.01, rounds=3,
            decoder="bp-dc", dc_second_priors="posterior",
            trials=50, seed=2, max_iter=60,
        )
        stats = run_trials(cfg)
        assert stats.trials == 50

    def test_circuit_bb_noise_pipeline(self):
        cfg = ExperimentConfig(
            code="bb:6,6", noise="circuit-bb", p=0.002, rounds=2,
            decoder="bp-dc", dc_second_priors="reset", bp_variant="min-sum",
            min_sum_scale=1.0, trials=20, seed=2, max_iter=120,
        )
        stats = run_trials(cfg)
        assert stats.trials == 20


@pytest.mark.parametrize("h_deg", [None, "ddm"])
def test_decode_rejects_unknown_decoder_names(h_deg):
    """A misspelt name raises, with or without a degeneracy matrix; it
    once ran BP+DC+OSD."""
    code = build_rotated_surface(3)
    syndrome = mat_vec_t(BitVec.from_support(9, [1, 2]), code.hz)
    h_deg = code.hx if h_deg else None
    with pytest.raises(ValueError, match=r"unknown decoder 'bp-typo', expected one of \('bp', "):
        sim.decode("bp-typo", BpDecoder(code.hz), syndrome, np.full(9, 0.05), 9, h_deg,
                   DcConfig(SecondRunPriors.RESET_TO_PRIOR))


class TestSweep:
    def test_builds_one_model_per_rate(self, monkeypatch):
        """Two rates and three decoders build two models, and every point's
        stats equal those of ``run_trials`` building its own model."""
        built = []

        def counting_build(cfg):
            built.append(cfg.p)
            return build_model(cfg)

        build_model = sim.build_model
        monkeypatch.setattr(sim, "build_model", counting_build)
        base = dict(code="surface:3", noise="pheno", rounds=2, trials=40, seed=5,
                    dc_second_priors="reset", max_iter=30)
        points = list(sim.sweep(base, [0.01, 0.03], ["bp", "bp-dc", "bp-osd"]))
        assert built == [0.01, 0.03]
        monkeypatch.setattr(sim, "build_model", build_model)
        assert [(cfg.decoder, cfg.p) for cfg, _ in points] == [
            (d, p) for d in ("bp", "bp-dc", "bp-osd") for p in (0.01, 0.03)
        ]
        for cfg, stats in points:
            assert stats == run_trials(cfg)
        assert sum(s.failures_logical + s.failures_nonconvergent for _, s in points) > 0

    def test_one_decoder_keeps_no_model(self, monkeypatch):
        """With one decoder no model is reused, so none is kept: each point
        builds its own as it runs."""
        built = []
        build_model = sim.build_model
        monkeypatch.setattr(sim, "build_model", lambda cfg: built.append(cfg.p) or build_model(cfg))
        points = sim.sweep(dict(code="surface:3", noise="code-capacity", trials=5, seed=1),
                           [0.01, 0.02, 0.03], ["bp"])
        next(points)
        assert built == [0.01]
        list(points)
        assert built == [0.01, 0.02, 0.03]

    def test_bad_choice_raises_before_any_model(self, monkeypatch):
        """Every point is checked before the first runs: a bad choice in the
        shared fields stops the sweep before a model is built."""
        monkeypatch.setattr(sim, "build_model", lambda cfg: pytest.fail("model built"))
        base = dict(code="surface:3", noise="pheno", trials=5, seed=1,
                    dc_second_priors="reset", dc_masking="bogus")
        with pytest.raises(ValueError, match="dc_masking must be one of"):
            sim.sweep(base, [0.01, 0.02], ["bp", "bp-dc"])


@pytest.mark.slow
def test_dominance_surface_d5():
    """Desk-scale ordering on the d=5 surface code-capacity point."""
    stats = {}
    for decoder, sp in [
        ("bp", None), ("bp-dc", "posterior"),
        ("bp-osd", None), ("bp-dc-osd", "posterior"),
    ]:
        cfg = ExperimentConfig(
            code="surface:5", noise="code-capacity", p=0.05, decoder=decoder,
            trials=10_000, seed=17, dc_second_priors=sp,
        )
        stats[decoder] = run_trials(cfg)
    assert stats["bp-dc"].failure_rate < stats["bp"].failure_rate
    assert not intervals_overlap(
        (stats["bp-dc"].ci_low, stats["bp-dc"].ci_high),
        (stats["bp"].ci_low, stats["bp"].ci_high),
    )
    assert stats["bp-osd"].failure_rate < stats["bp"].failure_rate
    assert intervals_overlap(
        (stats["bp-dc-osd"].ci_low, stats["bp-dc-osd"].ci_high),
        (stats["bp-osd"].ci_low, stats["bp-osd"].ci_high),
    )


@pytest.mark.slow
def test_pheno_dc_matches_osd_surface_d3():
    """Measurement-error degeneracy: the DDM cut must rescue BP.

    Under phenomenological noise plain BP stalls on data-vs-measurement
    ambiguities; cutting one node per degeneracy row recovers OSD-level
    failure rates.
    """
    stats = {}
    for decoder, sp in [("bp", None), ("bp-dc", "posterior"), ("bp-osd", None)]:
        cfg = ExperimentConfig(
            code="surface:3", noise="pheno", p=0.03, rounds=3,
            decoder=decoder, trials=1000, seed=21,
            dc_second_priors=sp, max_iter=1000,
        )
        stats[decoder] = run_trials(cfg)
    assert stats["bp-dc"].failure_rate < stats["bp"].failure_rate
    assert not intervals_overlap(
        (stats["bp-dc"].ci_low, stats["bp-dc"].ci_high),
        (stats["bp"].ci_low, stats["bp"].ci_high),
    )
    assert intervals_overlap(
        (stats["bp-dc"].ci_low, stats["bp-dc"].ci_high),
        (stats["bp-osd"].ci_low, stats["bp-osd"].ci_high),
    )


class TestRecords:
    @pytest.mark.parametrize("code,noise,rounds,T", [
        ("surface:3", "code-capacity", 5, 0),
        ("surface:3", "pheno", 4, 4),
        ("surface:5", "pheno", None, 5),
        ("bb:6,6", "circuit-bb", None, 6),
        ("bb:4,4", "pheno", None, 2),  # no distance on record
    ])
    def test_measurement_rounds(self, code, noise, rounds, T):
        cfg = ExperimentConfig(
            code=code, noise=noise, p=0.02, decoder="bp", trials=1, seed=0, rounds=rounds,
        )
        assert sim.measurement_rounds(cfg) == T
        assert sim.stats_record(cfg, sim.FailureStats.from_counts(1, 0, 0))["T"] == T

    def test_csv_roundtrip_shape(self):
        """Every row parses back to its record's fields, also where a code
        spec such as ``bb:6,6`` holds a comma."""
        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.02,
            decoder="bp", trials=50, seed=0,
        )
        bb = dataclasses.replace(cfg, code="bb:6,6")
        recs = [sim.stats_record(cfg, run_trials(cfg)),
                sim.stats_record(bb, sim.FailureStats.from_counts(50, 1, 2))]
        text = sim.records_to_csv(recs)
        header, *rows = csv.reader(io.StringIO(text))
        assert ",".join(header) == sim.CSV_HEADER
        assert text.startswith(sim.CSV_HEADER + "\n") and text.endswith("\n")
        assert len(rows) == len(recs)
        for rec, row in zip(recs, rows):
            assert row == [sim._format_value(rec[k]) for k in header]
        assert rows[1][:3] == ["bb:6,6", "code-capacity", "bp"]

    def test_jsonl(self):
        import json

        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.02,
            decoder="bp", trials=50, seed=0,
        )
        rec = sim.stats_record(cfg, run_trials(cfg))
        parsed = json.loads(sim.records_to_jsonl([rec]).strip())
        assert parsed["decoder"] == "bp" and parsed["trials"] == 50
