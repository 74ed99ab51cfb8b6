"""Degeneracy cutting and OSD tests, including the DC locality contract."""

import collections
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_dc_cut_indices,
    reference_bp_dc_decode,
    reference_bp_dc_osd_decode,
    reference_bp_osd_decode,
    reference_first_bp,
    reference_osd0_without_columns,
    sparse_matrices,
)
from qldpc_dc import noise, sim
from qldpc_dc.bp import MIN_SUM, PRODUCT_SUM, BpDecoder
from qldpc_dc.codes import bb_params, build_bb, build_rotated_surface
from qldpc_dc.detmodel import code_capacity_model
from qldpc_dc.gf2 import BitVec, SparseBinMatrix, in_rowspace, mat_vec_t
from qldpc_dc.postproc import (
    NO_CUT,
    DcConfig,
    DecodeStatus,
    InconsistentSystemError,
    MaskingMode,
    SecondRunPriors,
    bp_dc_decode,
    bp_osd_decode,
    dc_cut_indices,
    osd0_decode,
    run_pipeline,
)


def rng_from(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def assert_cut_format(cuts):
    """A cut as every reader takes it: a sorted, unique, read-only intp array."""
    assert isinstance(cuts, np.ndarray)
    assert cuts.dtype == np.intp and cuts.ndim == 1
    assert (np.diff(cuts) > 0).all()
    assert not cuts.flags.writeable


@st.composite
def tied_cut_cases(draw):
    """(h_deg, soft, seed): rows of mixed weights, none empty, and soft
    values from a few levels, +-0.0 included, so that most rows tie."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 10))
    sups = [draw(st.sets(st.integers(0, cols - 1), min_size=1, max_size=cols))
            for _ in range(rows)]
    levels = draw(st.lists(st.sampled_from([0.0, -0.0, 0.01, 0.2, 0.5, 1.0]),
                           min_size=1, max_size=3))
    soft = np.array(draw(st.lists(st.sampled_from(levels), min_size=cols, max_size=cols)))
    return SparseBinMatrix(rows, cols, sups), soft, draw(st.integers(0, 2**32 - 1))


class TestDcCutIndices:
    def test_unique_argmin(self):
        h = SparseBinMatrix(1, 8, [(2, 5, 7)])
        soft = np.zeros(8)
        soft[2], soft[5], soft[7] = 0.3, 0.1, 0.3
        assert dc_cut_indices(h, soft, rng_from(0)).tolist() == [5]

    def test_shared_argmin_collapses(self):
        h = SparseBinMatrix(2, 6, [(0, 1, 2), (2, 3, 4)])
        soft = np.array([0.5, 0.5, 0.01, 0.5, 0.5, 0.5])
        assert dc_cut_indices(h, soft, rng_from(0)).tolist() == [2]

    def test_all_tied_uniform(self):
        h = SparseBinMatrix(1, 4, [(0, 1, 2, 3)])
        soft = np.full(4, 0.5)
        counts = np.zeros(4)
        n_seeds = 4000
        for seed in range(n_seeds):
            (cut,) = dc_cut_indices(h, soft, rng_from(seed))
            counts[cut] += 1
        chi2 = float(((counts - n_seeds / 4) ** 2 / (n_seeds / 4)).sum())
        from scipy.stats import chi2 as chi2_dist

        assert chi2_dist.sf(chi2, df=3) > 0.001

    def test_empty_row_rejected(self):
        h = SparseBinMatrix(2, 3, [(0, 1), ()])
        with pytest.raises(ValueError, match="empty"):
            dc_cut_indices(h, np.full(3, 0.5), rng_from(0))

    def test_locality_sentinel_poisoning(self):
        """Values outside each row's support must never be read."""
        h = SparseBinMatrix(3, 10, [(0, 4), (4, 5, 6), (8, 9)])
        soft = np.full(10, 0.25)
        soft[4] = 0.1
        soft[5] = 0.05
        soft[9] = 0.2
        clean = dc_cut_indices(h, soft, rng_from(7))
        poisoned = soft.copy()
        in_support = {j for sup in h.row_supports for j in sup}
        for j in range(10):
            if j not in in_support:
                poisoned[j] = np.nan
        assert np.array_equal(dc_cut_indices(h, poisoned, rng_from(7)), clean)

    def test_nan_inside_a_support_rejected(self):
        h = SparseBinMatrix(2, 4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="row 1 has a NaN"):
            dc_cut_indices(h, np.array([0.1, 0.2, np.nan, 0.3]), rng_from(0))

    @given(tied_cut_cases())
    @example((SparseBinMatrix(0, 3, []), np.full(3, 0.5), 0))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_row_loop(self, case):
        """The one-pass cut over CSR rows makes the cuts of the per-row
        loop it replaced and leaves the Philox stream in the same state."""
        h, soft, seed = case
        got_rng, want_rng = rng_from(seed), rng_from(seed)
        got = dc_cut_indices(h, soft, got_rng)
        assert got.tolist() == sorted(reference_dc_cut_indices(h, soft, want_rng))
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)

    def test_equals_the_row_loop_on_a_circuit_ddm(self):
        """The same on circuit-level degeneracy matrices: on bb:6,6 for soft
        outputs of failed first runs, their values rounded to two digits
        (many ties), and the priors; on bb:12,6 T=12 for the priors, where
        thousands of rows tie.  The CSR rows are built once."""
        cfg = sim.ExperimentConfig(code="bb:6,6", noise="circuit-bb", rounds=3, p=0.01,
                                   decoder="bp", trials=8, seed=5)
        model = sim.build_model(cfg)
        dec = BpDecoder(model.check_matrix, MIN_SUM, 1.0)
        cases = [(model.degeneracy_matrix, model.priors)]
        for t in range(cfg.trials):
            syndrome = noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome
            out = dec.decode(syndrome, model.priors, 30)
            cases += [(model.degeneracy_matrix, s) for s in (out.soft, np.round(out.soft, 2))]
        big = sim.build_model(sim.ExperimentConfig(code="bb:12,6", noise="circuit-bb", rounds=12,
                                                   p=0.003, decoder="bp", trials=1, seed=0))
        cases.append((big.degeneracy_matrix, big.priors))
        for seed, (h_deg, soft) in enumerate(cases):
            got_rng, want_rng = rng_from(seed), rng_from(seed)
            got = dc_cut_indices(h_deg, soft, got_rng)
            assert got.tolist() == sorted(reference_dc_cut_indices(h_deg, soft, want_rng))
            assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
        assert model.degeneracy_matrix.csr is model.degeneracy_matrix.csr

    @given(tied_cut_cases())
    @example((SparseBinMatrix(0, 3, []), np.full(3, 0.5), 0))
    @settings(max_examples=100, deadline=None)
    def test_cut_is_a_sorted_read_only_intp_array(self, case):
        h, soft, seed = case
        cuts = dc_cut_indices(h, soft, rng_from(seed))
        assert_cut_format(cuts)
        with pytest.raises(ValueError, match="read-only"):
            cuts[:] = 0

    @pytest.mark.parametrize("bounds", [[], [2], [3, 2, 5000, 7], list(range(2, 5001))])
    def test_array_bounded_integers_draws_as_scalar_calls(self, bounds):
        """The cut's one tie draw rests on this numpy contract: on a Philox
        generator, ``integers(bounds)`` gives the values and the final
        state of one scalar ``integers(n)`` call per bound, in order."""
        bounds = np.array(bounds, dtype=np.intp)
        got_rng, want_rng = rng_from(9), rng_from(9)
        got = got_rng.integers(bounds)
        want = [int(want_rng.integers(int(n))) for n in bounds]
        assert got.tolist() == want
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)

    def test_cut_budget(self):
        h = SparseBinMatrix(4, 12, [(0, 1, 2), (2, 3), (5, 6, 7), (7, 8)])
        cuts = dc_cut_indices(h, np.linspace(0.1, 0.9, 12), rng_from(1))
        assert len(cuts) <= h.rows
        for sup in h.row_supports:
            assert set(sup) - set(cuts.tolist())  # at least one supported variable survives


class TestBpDcDecode:
    def setup_method(self):
        self.code = build_rotated_surface(3)
        self.priors = np.full(9, 0.05)
        self.cfg = DcConfig(second_run_priors=SecondRunPriors.POSTERIOR, rng_seed=1)

    def test_early_return_on_first_convergence(self):
        e = BitVec.from_support(9, [4])
        s = mat_vec_t(e, self.code.hz)
        res = bp_dc_decode(self.code.hz, self.code.hx, s, self.priors, 9, self.cfg)
        assert res.status is DecodeStatus.CONVERGED_FIRST_BP
        assert res.cut_indices.tolist() == []
        assert len(res.bp_iterations) == 1

    def test_degenerate_pair_recovered(self):
        # two-qubit error degenerate with another pair under one X generator;
        # first BP stalls on the split, the cut breaks it
        e = BitVec.from_support(9, [1, 2])
        s = mat_vec_t(e, self.code.hz)
        first = BpDecoder(self.code.hz).decode(s, self.priors, 9)
        assert not first.converged
        res = bp_dc_decode(self.code.hz, self.code.hx, s, self.priors, 9, self.cfg)
        assert res.status is DecodeStatus.CONVERGED_AFTER_DC
        assert mat_vec_t(res.estimate, self.code.hz) == s
        assert in_rowspace(res.estimate ^ e, self.code.hx)

    def test_masking_modes_agree_per_trial(self):
        """Zeroed priors and deleted columns give every trial the same
        status and estimate: min-sum with reset priors on bb:6,6, and
        product-sum with posterior priors on surface:5, with and without
        OSD-0 after the cut (257 of the 600 trials take the DC path, and
        two of them reach OSD-0)."""
        cases = [  # (code, p, trials, max_iter, variant, second-run priors, osd)
            (build_bb(bb_params(6, 6)), 0.05, 120, 72, MIN_SUM, SecondRunPriors.RESET_TO_PRIOR,
             False),
            *((build_rotated_surface(5), 0.06, 600, 25, PRODUCT_SUM, SecondRunPriors.POSTERIOR,
               osd) for osd in (False, True)),
        ]
        for code, p, trials, max_iter, variant, second_run_priors, osd in cases:
            model = code_capacity_model(code, p)
            outcomes = []
            for mode in (MaskingMode.ZERO_PRIORS, MaskingMode.DELETE_COLUMNS):
                run = []
                for t in range(trials):
                    rng = noise.trial_rng(5, t)
                    sample = noise.make_trial(model, rng)
                    cfg = DcConfig(
                        second_run_priors=second_run_priors,
                        rng_seed=t,
                        masking_mode=mode,
                    )
                    res = run_pipeline(
                        BpDecoder(code.hz, variant, 1.0), sample.syndrome, model.priors,
                        max_iter, code.hx, cfg, osd=osd,
                    )
                    run.append((res.status, res.estimate))
                outcomes.append(run)
            assert outcomes[0] == outcomes[1]
            statuses = collections.Counter(status for status, _ in outcomes[0])
            assert statuses[DecodeStatus.CONVERGED_AFTER_DC] > 0
            assert statuses[DecodeStatus.CONVERGED_AFTER_OSD] == (2 if osd else 0)

    def test_masking_modes_agree_with_a_given_decoder(self):
        # a given decoder's BP settings drive both second runs; the
        # delete-columns run once fell back to the keyword defaults
        # (product-sum, 0.625) and disagreed on 112 of these 113 DC trials
        code = build_bb(bb_params(6, 6))
        model = code_capacity_model(code, 0.07)
        dec = BpDecoder(code.hz, MIN_SUM, 1.0)
        runs = []
        for mode in (MaskingMode.ZERO_PRIORS, MaskingMode.DELETE_COLUMNS):
            run = []
            for t in range(300):
                rng = noise.trial_rng(7, t)
                sample = noise.make_trial(model, rng)
                cfg = DcConfig(
                    second_run_priors=SecondRunPriors.RESET_TO_PRIOR,
                    rng_seed=int(rng.integers(0, 2**63)),
                    masking_mode=mode,
                )
                res = bp_dc_decode(
                    code.hz, code.hx, sample.syndrome, model.priors, 72, cfg, decoder=dec
                )
                run.append((res.status, res.estimate, res.cut_indices.tolist(), res.bp_iterations))
            runs.append(run)
        assert sum(len(r[3]) == 2 for r in runs[0]) == 113
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("variant", [PRODUCT_SUM, MIN_SUM])
    def test_second_runs_leave_the_kept_graph(self, variant):
        """Neither second run touches the full graph kept on the check
        matrix: zero priors decode on a masked graph, and delete-columns
        on a reduced matrix's graph."""
        s = mat_vec_t(BitVec.from_support(9, [1, 2]), self.code.hz)
        dec = BpDecoder(self.code.hz, variant, 1.0)
        graph = dec.graph
        arrays = {k: v.copy() for k, v in vars(graph).items() if isinstance(v, np.ndarray)}
        for mode in (MaskingMode.ZERO_PRIORS, MaskingMode.DELETE_COLUMNS):
            cfg = DcConfig(second_run_priors=SecondRunPriors.POSTERIOR, rng_seed=1,
                           masking_mode=mode)
            res = bp_dc_decode(self.code.hz, self.code.hx, s, self.priors, 9, cfg, decoder=dec)
            assert len(res.bp_iterations) == 2
            assert self.code.hz._graph is graph
            assert all(np.array_equal(getattr(graph, k), v) for k, v in arrays.items())
            assert graph.nnz == self.code.hz.nnz

    def test_seed_determinism(self):
        e = BitVec.from_support(9, [1, 2])
        s = mat_vec_t(e, self.code.hz)
        a = bp_dc_decode(self.code.hz, self.code.hx, s, self.priors, 9, self.cfg)
        b = bp_dc_decode(self.code.hz, self.code.hx, s, self.priors, 9, self.cfg)
        assert a.estimate == b.estimate and np.array_equal(a.cut_indices, b.cut_indices)

    def test_work_bound(self):
        e = BitVec.from_support(9, [1, 2])
        s = mat_vec_t(e, self.code.hz)
        res = bp_dc_decode(self.code.hz, self.code.hx, s, self.priors, 9, self.cfg)
        assert len(res.bp_iterations) <= 2
        assert sum(res.bp_iterations) <= 2 * 9


class TestOsd0:
    def test_square_invertible_ignores_soft(self):
        h = SparseBinMatrix(3, 3, [(0, 1), (1,), (1, 2)])
        s = BitVec.from_support(3, [0])
        a = osd0_decode(h, s, [0.9, 0.1, 0.5])
        b = osd0_decode(h, s, [0.1, 0.9, 0.5])
        assert a == b
        assert mat_vec_t(a, h) == s

    def test_zero_syndrome(self):
        h = SparseBinMatrix(2, 4, [(0, 1, 2), (1, 2, 3)])
        assert osd0_decode(h, BitVec.zeros(2), np.full(4, 0.3)) == BitVec.zeros(4)

    def test_weight_one_errors_correct_coset(self):
        code = build_rotated_surface(3)
        priors = np.full(9, 0.05)
        for q in range(9):
            e = BitVec.from_support(9, [q])
            s = mat_vec_t(e, code.hz)
            out = BpDecoder(code.hz).decode(s, priors, 9, early_stop=False)
            est = osd0_decode(code.hz, s, out.soft)
            assert mat_vec_t(est, code.hz) == s
            assert in_rowspace(est ^ e, code.hx)

    def test_inconsistent_raises(self):
        h = SparseBinMatrix(2, 2, [(0,), (0,)])
        with pytest.raises(InconsistentSystemError):
            osd0_decode(h, BitVec.from_support(2, [0]), [0.5, 0.5])

    def test_messages_name_the_row_space_or_the_uncut_columns(self):
        h = SparseBinMatrix(2, 3, [(0,), (1,)])
        with pytest.raises(InconsistentSystemError, match="row space"):
            osd0_decode(SparseBinMatrix(2, 2, [(0,), (0,)]), BitVec.from_support(2, [0]),
                        [0.5, 0.5], [])
        with pytest.raises(InconsistentSystemError, match="uncut columns"):
            osd0_decode(h, BitVec.from_support(2, [0]), [0.5, 0.5, 0.5], [0])

    def test_cut_columns_are_taken_last(self):
        """Column 0 is the most probable error, but cut; columns 1 and 2
        span the syndrome without it."""
        h = SparseBinMatrix(2, 3, [(0, 1), (0, 2)])
        s = BitVec.from_support(2, [0, 1])
        assert osd0_decode(h, s, [0.9, 0.1, 0.1]) == BitVec.from_support(3, [0])
        assert osd0_decode(h, s, [0.9, 0.1, 0.1], [0]) == BitVec.from_support(3, [1, 2])

    @pytest.mark.parametrize("index", [-1, -3, 3])
    @pytest.mark.parametrize("form", [list, np.array])
    def test_cut_index_out_of_range_rejected(self, index, form):
        """A negative index would wrap to a column, and one at ``cols``
        would be numpy's IndexError; both get ``without_columns``' error."""
        h = SparseBinMatrix(2, 3, [(0, 1), (0, 2)])
        s = BitVec.from_support(2, [0, 1])
        with pytest.raises(ValueError, match=f"column index {index} out of range for 3 columns"):
            osd0_decode(h, s, [0.9, 0.1, 0.1], form([1, index]))

    @given(sparse_matrices(), st.data())
    @settings(max_examples=300)
    def test_cut_matches_osd0_on_the_reduced_matrix(self, h, data):
        """Any syndrome, so inconsistent systems are drawn too; any cut, the
        empty cut and the all-columns cut drawn often; soft values from a
        small set, so ties are drawn too."""
        s = BitVec(h.rows, data.draw(st.integers(0, (1 << h.rows) - 1)))
        soft = data.draw(
            st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9]), min_size=h.cols, max_size=h.cols)
        )
        cut = sorted(data.draw(st.one_of(
            st.just(set()), st.just(set(range(h.cols))), st.sets(st.integers(0, h.cols - 1))
        )))
        expected = reference_osd0_without_columns(h, s, soft, cut)
        if expected is None:
            with pytest.raises(InconsistentSystemError):
                osd0_decode(h, s, soft, cut)
        else:
            assert osd0_decode(h, s, soft, cut) == expected


class TestComposedPipelines:
    def setup_method(self):
        self.code = build_rotated_surface(3)
        self.priors = np.full(9, 0.05)
        self.cfg = DcConfig(second_run_priors=SecondRunPriors.POSTERIOR, rng_seed=3)

    def test_bp_osd_identical_when_bp_converges(self):
        e = BitVec.from_support(9, [4])
        s = mat_vec_t(e, self.code.hz)
        plain = BpDecoder(self.code.hz).decode(s, self.priors, 9)
        res = bp_osd_decode(self.code.hz, s, self.priors, 9)
        assert plain.converged
        assert res.status is DecodeStatus.CONVERGED_FIRST_BP
        assert res.estimate == plain.hard

    def test_bp_osd_falls_back(self):
        e = BitVec.from_support(9, [1, 2])
        s = mat_vec_t(e, self.code.hz)
        res = bp_osd_decode(self.code.hz, s, self.priors, 9)
        assert res.status in (DecodeStatus.CONVERGED_FIRST_BP, DecodeStatus.CONVERGED_AFTER_OSD)
        assert mat_vec_t(res.estimate, self.code.hz) == s

    def test_dc_osd_keeps_failed_status_when_cuts_remove_all_solutions(self):
        # degeneracy row forces cutting the only column that can satisfy
        # check 0, so the cut-reduced system is inconsistent and the result
        # stays an honest failure
        h = SparseBinMatrix(2, 2, [(0,), (0, 1)])
        h_deg = SparseBinMatrix(1, 2, [(0,)])
        s = BitVec.from_support(2, [0])
        cfg = DcConfig(second_run_priors=SecondRunPriors.RESET_TO_PRIOR, rng_seed=0)
        res = run_pipeline(BpDecoder(h), s, np.full(2, 0.4), 1, h_deg, cfg, osd=True)
        assert res.status is DecodeStatus.FAILED
        assert res.cut_indices.tolist() == [0]

    def test_dc_osd_estimate_zero_at_cuts(self):
        # force the second BP to fail by restricting iterations,
        # then OSD on the cut-reduced system must still satisfy s
        code = build_bb(bb_params(6, 6))
        model = code_capacity_model(code, 0.05)
        dec = BpDecoder(code.hz, MIN_SUM, 1.0)
        checked = 0
        for t in range(400):
            rng = noise.trial_rng(11, t)
            sample = noise.make_trial(model, rng)
            cfg = DcConfig(second_run_priors=SecondRunPriors.RESET_TO_PRIOR, rng_seed=t)
            res = sim.decode("bp-dc-osd", dec, sample.syndrome, model.priors, 72, code.hx, cfg)
            if res.status is DecodeStatus.CONVERGED_AFTER_OSD:
                checked += 1
                assert mat_vec_t(res.estimate, code.hz) == sample.syndrome
                assert not set(res.estimate.support) & set(res.cut_indices.tolist())
            if checked >= 10:
                break
        assert checked >= 10


# (code, noise, rounds, p, variant, min_sum_scale, trials, max_iter): both BP
# runs stop so early that OSD-0 runs on most trials, and on surface:5 pheno
# the cuts of some trials leave the syndrome outside the uncut columns' span
DC_OSD_POINTS = [
    ("bb:6,6", "circuit-bb", 3, 0.01, MIN_SUM, 1.0, 30, 5),
    ("bb:6,6", "code-capacity", None, 0.1, PRODUCT_SUM, 0.625, 60, 3),
    ("surface:5", "pheno", 3, 0.08, MIN_SUM, 1.0, 60, 2),
]
DC_OSD_DIGEST = "41e7299bec7b13d2d2b442579149dd662bce09dfdb39abe9c0150babdd89499c"


def test_bp_dc_osd_digest():
    """SHA-256 of the status, estimate bits, cuts and BP iterations of
    BP+DC+OSD on a fixed trial set, with both second-run priors and both
    masking modes.  The digest was computed when OSD-0 after DC solved on
    the cut-reduced matrix, so it checks that pivoting on H's uncut
    columns changes no bit."""
    sha = hashlib.sha256()
    statuses = collections.Counter()
    for code, noise_model, rounds, p, variant, scale, trials, max_iter in DC_OSD_POINTS:
        cfg = sim.ExperimentConfig(
            code=code, noise=noise_model, rounds=rounds, p=p, decoder="bp",
            trials=trials, seed=5,
        )
        model = sim.build_model(cfg)
        dec = BpDecoder(model.check_matrix, variant, scale)
        for t in range(trials):
            syndrome = noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome
            for second in SecondRunPriors:
                for masking in MaskingMode:
                    res = sim.decode(
                        "bp-dc-osd", dec, syndrome, model.priors, max_iter,
                        model.degeneracy_matrix, DcConfig(second, t, masking),
                    )
                    statuses[res.status] += 1
                    sha.update(repr((
                        res.status.value, res.estimate.bits, res.cut_indices.tolist(),
                        res.bp_iterations,
                    )).encode())
    assert statuses == {
        DecodeStatus.CONVERGED_FIRST_BP: 60,
        DecodeStatus.CONVERGED_AFTER_DC: 86,
        DecodeStatus.CONVERGED_AFTER_OSD: 418,
        DecodeStatus.FAILED: 36,
    }
    assert sha.hexdigest() == DC_OSD_DIGEST


def test_every_result_holds_its_cut_as_a_read_only_intp_array():
    """First-BP, after-DC, after-OSD and failed results of all four
    decoders hold sorted, unique, read-only intp cuts; a result whose
    decode made no cut holds the one shared empty ``NO_CUT``."""
    seen = set()
    for code, noise_model, rounds, p, variant, scale, trials, max_iter in DC_OSD_POINTS:
        cfg = sim.ExperimentConfig(
            code=code, noise=noise_model, rounds=rounds, p=p, decoder="bp",
            trials=trials, seed=5,
        )
        model = sim.build_model(cfg)
        dec = BpDecoder(model.check_matrix, variant, scale)
        for t in range(0, trials, 3):
            syndrome = noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome
            for name in sim.DECODERS:
                res = sim.decode(name, dec, syndrome, model.priors, max_iter,
                                 model.degeneracy_matrix,
                                 DcConfig(SecondRunPriors.RESET_TO_PRIOR, t))
                seen.add((name, res.status))
                assert_cut_format(res.cut_indices)
                cut_made = "dc" in name and res.status is not DecodeStatus.CONVERGED_FIRST_BP
                assert (res.cut_indices is NO_CUT) is not cut_made
    assert {status for _, status in seen} == set(DecodeStatus)
    assert {status for name, status in seen if name == "bp-dc-osd"} == set(DecodeStatus)


def _outcome(fn, *args, **kwargs):
    """A decode's result fields, or the type and message of what it raised."""
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:  # exceptions are compared too
        return ("raised", type(exc), str(exc))
    return (res.estimate, res.status, res.cut_indices.tolist(), res.bp_iterations)


@st.composite
def pipeline_cases(draw):
    """(H, h_deg, syndrome, priors, max_iter, dc seed).  Half the syndromes
    are any bits, so inconsistent ones too, and half an error's.  h_deg
    may have no rows, and 1 time in 10 has an empty row or one column too
    many.  Priors include 0.0, and BP gets few iterations, so every stage
    runs."""
    h = draw(sparse_matrices(max_rows=6, max_cols=8))
    deg_cols = h.cols + (draw(st.integers(0, 9)) == 7)
    min_support = int(draw(st.integers(0, 9)) != 7)
    deg_rows = [
        draw(st.sets(st.integers(0, deg_cols - 1), min_size=min_support, max_size=3))
        for _ in range(draw(st.integers(0, 3)))
    ]
    h_deg = SparseBinMatrix(len(deg_rows), deg_cols, deg_rows)
    if draw(st.booleans()):
        syndrome = BitVec(h.rows, draw(st.integers(0, (1 << h.rows) - 1)))
    else:
        syndrome = mat_vec_t(BitVec(h.cols, draw(st.integers(0, (1 << h.cols) - 1))), h)
    priors = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45]),
        min_size=h.cols, max_size=h.cols,
    )))
    return h, h_deg, syndrome, priors, draw(st.integers(1, 6)), draw(st.integers(0, 2**63))


@given(pipeline_cases())
@settings(max_examples=300, deadline=None)
def test_run_pipeline_matches_the_separate_pipelines(case):
    """``run_pipeline``, reached through ``sim.decode`` and the wrappers,
    gives what the separate pipelines it replaced gave: the same estimate,
    status, cuts and BP iterations, or the same exception, for all four
    decoders, both BP variants, both second-run priors and both masking
    modes."""
    h, h_deg, syndrome, priors, max_iter, seed = case
    for variant in (PRODUCT_SUM, MIN_SUM):
        dec = BpDecoder(h, variant, 0.75)
        got = _outcome(sim.decode, "bp", dec, syndrome, priors, max_iter)
        assert got == _outcome(lambda: reference_first_bp(dec, syndrome, priors, max_iter)[0])
        assert got == _outcome(run_pipeline, dec, syndrome, priors, max_iter)
        assert _outcome(sim.decode, "bp-osd", dec, syndrome, priors, max_iter) == _outcome(
            reference_bp_osd_decode, h, syndrome, priors, max_iter, decoder=dec
        )
        for second in SecondRunPriors:
            for masking in MaskingMode:
                cfg = DcConfig(second, seed, masking)
                for name, reference in (
                    ("bp-dc", reference_bp_dc_decode),
                    ("bp-dc-osd", reference_bp_dc_osd_decode),
                ):
                    got = _outcome(
                        sim.decode, name, dec, syndrome, priors, max_iter, h_deg, cfg
                    )
                    assert got == _outcome(
                        reference, h, h_deg, syndrome, priors, max_iter, cfg, decoder=dec
                    )


def test_run_pipeline_dc_stage_needs_a_degeneracy_matrix():
    dec = BpDecoder(SparseBinMatrix(1, 2, [(0, 1)]))
    with pytest.raises(ValueError, match="degeneracy matrix"):
        run_pipeline(dec, BitVec.from_support(1, [0]), [0.1, 0.1], 5,
                     dc_cfg=DcConfig(SecondRunPriors.RESET_TO_PRIOR))


# SHA-256 of BP, BP+OSD and BP+DC through sim.decode on DC_OSD_POINTS' trials,
# pinned when each decoder was a separate pipeline function
SIM_DECODE_DIGEST = "66f00304673a5732cb2ef16fdd80eafeb48024bb5077a9627ceacf4ba9c3c1e8"


def test_sim_decode_digest():
    """Per-trial status, estimate bits, cuts and BP iterations of ``bp``,
    ``bp-osd`` and ``bp-dc`` (both second-run priors, both masking modes)
    through ``sim.decode``; ``bp-dc-osd`` is pinned by DC_OSD_DIGEST."""
    sha = hashlib.sha256()
    statuses = collections.Counter()
    for code, noise_model, rounds, p, variant, scale, trials, max_iter in DC_OSD_POINTS:
        cfg = sim.ExperimentConfig(
            code=code, noise=noise_model, rounds=rounds, p=p, decoder="bp",
            trials=trials, seed=5,
        )
        model = sim.build_model(cfg)
        dec = BpDecoder(model.check_matrix, variant, scale)
        for t in range(trials):
            syndrome = noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome
            runs = [("bp", None), ("bp-osd", None)] + [
                ("bp-dc", DcConfig(second, t, masking))
                for second in SecondRunPriors
                for masking in MaskingMode
            ]
            for name, dc_cfg in runs:
                res = sim.decode(
                    name, dec, syndrome, model.priors, max_iter, model.degeneracy_matrix, dc_cfg
                )
                statuses[name, res.status.value] += 1
                sha.update(repr((
                    name, res.status.value, res.estimate.bits, res.cut_indices.tolist(),
                    res.bp_iterations,
                )).encode())
    assert statuses == {
        ("bp", "converged-first-bp"): 15,
        ("bp", "failed"): 135,
        ("bp-osd", "converged-first-bp"): 15,
        ("bp-osd", "converged-after-osd"): 135,
        ("bp-dc", "converged-first-bp"): 60,
        ("bp-dc", "converged-after-dc"): 86,
        ("bp-dc", "failed"): 454,
    }
    assert sha.hexdigest() == SIM_DECODE_DIGEST
