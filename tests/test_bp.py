"""BP decoder tests.

The main oracle: on acyclic Tanner graphs, product-sum BP must reproduce
the exact syndrome-conditioned posterior marginals, computed here by
brute-force enumeration over all error patterns.
"""

import concurrent.futures
import hashlib
import itertools
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import sparse_matrices
from qldpc_dc import bp, noise, sim
from qldpc_dc.bp import MIN_SUM, PRODUCT_SUM, BpDecoder, TannerGraph
from qldpc_dc.gf2 import BitVec, SparseBinMatrix, mat_vec_t
from qldpc_dc.postproc import _dc_rng, dc_cut_indices


def random_forest_checks(rng: np.random.Generator) -> SparseBinMatrix:
    """Random acyclic parity-check structure on up to 16 variables.

    Checks join variables from distinct components (union-find), so the
    bipartite graph is a forest by construction.
    """
    nv = int(rng.integers(2, 17))
    parent = list(range(nv))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rows = []
    for _ in range(int(rng.integers(1, nv))):
        comps = {}
        for v in range(nv):
            comps.setdefault(find(v), []).append(v)
        groups = list(comps.values())
        ksize = int(rng.integers(1, min(len(groups), 4) + 1))
        chosen = rng.choice(len(groups), size=ksize, replace=False)
        row = sorted(int(rng.choice(groups[g])) for g in chosen)
        for v in row[1:]:
            parent[find(v)] = find(row[0])
        rows.append(row)
    return SparseBinMatrix(len(rows), nv, rows)


def exact_marginals(h: SparseBinMatrix, s_dense, priors) -> np.ndarray:
    """Brute-force posterior marginals over all 2^n error patterns."""
    dense = h.to_dense()
    nv = h.cols
    num = np.zeros(nv)
    den = 0.0
    for bits in itertools.product([0, 1], repeat=nv):
        e = np.array(bits, dtype=np.uint8)
        if not np.array_equal(dense @ e % 2, s_dense):
            continue
        pr = float(np.prod(np.where(e, priors, 1 - priors)))
        den += pr
        num += pr * e
    return num / den


def assert_tree_exact(h, priors, s_dense, tol=1e-9):
    out = BpDecoder(h).decode(
        BitVec.from_dense(s_dense), priors, max_iter=40, early_stop=False
    )
    exact = exact_marginals(h, s_dense, priors)
    assert np.abs(out.soft - exact).max() < tol


class TestBpDecode:
    def test_zero_syndrome_fixed_point(self):
        h = SparseBinMatrix(2, 4, [(0, 1), (2, 3)])
        priors = np.full(4, 0.1)
        out = BpDecoder(h).decode(BitVec.zeros(2), priors, max_iter=10)
        assert out.converged and out.iterations_used == 0
        assert np.array_equal(out.soft, priors)
        assert out.hard == BitVec.zeros(4)

    @pytest.mark.parametrize("variant", [PRODUCT_SUM, MIN_SUM])
    def test_tie_at_one_half_is_an_error(self, variant):
        # column 2 is in no check, so its soft output stays at its prior;
        # a soft value of exactly 0.5 thresholds to an error
        h = SparseBinMatrix(1, 3, [(0, 1)])
        priors = np.array([0.1, 0.1, 0.5])
        dec = BpDecoder(h, variant)
        for bits, early_stop in (((), True), ((0,), False)):
            out = dec.decode(BitVec.from_support(1, bits), priors, 5, early_stop=early_stop)
            assert out.soft[2] == 0.5
            assert out.hard[2] == 1

    def test_single_check_exact_posterior(self):
        h = SparseBinMatrix(1, 3, [(0, 1, 2)])
        priors = np.full(3, 0.1)
        s = np.array([1], dtype=np.uint8)
        assert_tree_exact(h, priors, s)

    def test_repetition_chain_exact_posterior(self):
        h = SparseBinMatrix(4, 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        rng = np.random.default_rng(5)
        priors = rng.uniform(0.01, 0.49, 5)
        x = (rng.random(5) < 0.4).astype(np.uint8)
        s = h.to_dense() @ x % 2
        assert_tree_exact(h, priors, s)

    def test_tree_exactness_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = random_forest_checks(rng)
            priors = rng.uniform(0.01, 0.49, h.cols)
            x = (rng.random(h.cols) < 0.3).astype(np.uint8)
            s = h.to_dense() @ x % 2
            assert_tree_exact(h, priors, s)

    def test_syndrome_soundness_when_converged(self):
        rng = np.random.default_rng(3)
        code_h = SparseBinMatrix(
            4, 8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)]
        )
        for variant in (PRODUCT_SUM, MIN_SUM):
            for t in range(50):
                x = BitVec.from_dense((rng.random(8) < 0.15).astype(np.uint8))
                s = mat_vec_t(x, code_h)
                out = BpDecoder(code_h, variant).decode(s, np.full(8, 0.15), 30)
                if out.converged:
                    assert mat_vec_t(out.hard, code_h) == s

    def test_determinism(self):
        h = SparseBinMatrix(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
        s = BitVec.from_support(3, [0, 2])
        priors = np.full(6, 0.08)
        a = BpDecoder(h).decode(s, priors, 20)
        b = BpDecoder(h).decode(s, priors, 20)
        assert np.array_equal(a.soft, b.soft)
        assert a.hard == b.hard and a.iterations_used == b.iterations_used

    def test_prior_zero_is_absorbing(self):
        h = SparseBinMatrix(2, 4, [(0, 1, 2), (1, 2, 3)])
        priors = np.array([0.3, 0.0, 0.3, 0.3])
        s = BitVec.from_support(2, [0, 1])
        for it in range(1, 12):
            out = BpDecoder(h).decode(s, priors, it, early_stop=False)
            assert out.soft[1] == 0.0
            assert out.hard[1] == 0

    def test_masking_equals_column_deletion(self):
        h = SparseBinMatrix(3, 5, [(0, 1, 2), (1, 2, 3), (3, 4, 0)])
        priors = np.array([0.1, 0.0, 0.1, 0.12, 0.07])
        s = BitVec.from_support(3, [1])
        h2, kept = h.without_columns({1})
        for it in (1, 3, 8):
            full = BpDecoder(h).decode(s, priors, it, early_stop=False)
            sub = BpDecoder(h2).decode(s, priors[kept], it, early_stop=False)
            assert np.array_equal(full.soft[kept], sub.soft)

    def test_empty_check_row_is_tolerated(self):
        # an all-zero row can appear after column deletion; with syndrome 1
        # there it can never converge, with 0 it is vacuous
        h = SparseBinMatrix(3, 4, [(0, 1), (), (2, 3)])
        priors = np.full(4, 0.2)
        ok = BpDecoder(h).decode(BitVec.zeros(3), priors, 5)
        assert ok.converged
        stuck = BpDecoder(h).decode(BitVec.from_support(3, [1]), priors, 5)
        assert not stuck.converged

    def test_dimension_errors(self):
        h = SparseBinMatrix(2, 3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            BpDecoder(h).decode(BitVec.zeros(3), np.full(3, 0.1), 5)
        with pytest.raises(ValueError):
            BpDecoder(h).decode(BitVec.zeros(2), np.full(4, 0.1), 5)
        with pytest.raises(ValueError):
            BpDecoder(h).decode(BitVec.zeros(2), np.full(3, 0.1), 0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_min_sum_scale_must_be_finite_and_positive(self, scale):
        h = SparseBinMatrix(1, 2, [(0, 1)])
        with pytest.raises(ValueError, match="min_sum_scale must be a finite number > 0"):
            BpDecoder(h, MIN_SUM, scale)
        with pytest.raises(ValueError, match="min_sum_scale"):
            BpDecoder(h, PRODUCT_SUM, scale)

    def test_nan_prior_rejected(self):
        h = SparseBinMatrix(1, 2, [(0, 1)])
        with pytest.raises(ValueError, match="priors must lie in"):
            BpDecoder(h).decode(BitVec.zeros(1), np.array([0.1, np.nan]), 5)

    def test_min_sum_scale_recorded_and_used(self):
        h = SparseBinMatrix(1, 2, [(0, 1)])
        s = BitVec.from_support(1, [0])
        a = BpDecoder(h, MIN_SUM, 1.0).decode(s, np.full(2, 0.2), 1, early_stop=False)
        b = BpDecoder(h, MIN_SUM, 0.5).decode(s, np.full(2, 0.2), 1, early_stop=False)
        assert not np.array_equal(a.soft, b.soft)


class TestWorkBound:
    def test_edge_updates_bounded(self):
        """Each iteration updates every edge once in each direction, for
        both variants, with the numpy loop and, where gcc is installed,
        the compiled one."""
        h = SparseBinMatrix(4, 8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 1)])
        s = BitVec.from_support(4, [0, 2])
        max_iter = 17
        kernels = [None]
        if shutil.which("gcc") is not None:
            kernels.append(bp._load_kernel())
            assert kernels[-1] is not None, "gcc is installed, but the kernel did not load"
        for kernel in kernels:
            for variant in (PRODUCT_SUM, MIN_SUM):
                with mock.patch.object(bp, "_load_kernel", lambda: kernel):
                    dec = BpDecoder(h, variant)
                    out = dec.decode(s, np.full(8, 0.1), max_iter, early_stop=False)
                assert out.iterations_used == max_iter
                assert dec.v2c_edge_updates == out.iterations_used * h.nnz
                assert dec.c2v_edge_updates == out.iterations_used * h.nnz

    def test_early_stop_costs_less(self):
        h = SparseBinMatrix(2, 4, [(0, 1), (2, 3)])
        dec = BpDecoder(h)
        out = dec.decode(BitVec.zeros(2), np.full(4, 0.01), 50)
        assert out.iterations_used == 0
        assert dec.c2v_edge_updates == 0

    def test_cut_columns_carry_no_edge_updates(self):
        h = SparseBinMatrix(4, 8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 1)])
        dec = BpDecoder(h)
        s = BitVec.from_support(4, [0, 2])
        priors = np.full(8, 0.1)
        priors[[2, 6]] = 0.0
        out = dec.decode(s, priors, 9, early_stop=False)
        kept_nnz = h.nnz - len(h.col(2)) - len(h.col(6))
        assert dec.v2c_edge_updates == out.iterations_used * kept_nnz
        assert dec.c2v_edge_updates == out.iterations_used * kept_nnz


VARIANTS = [(PRODUCT_SUM, 1.0), (PRODUCT_SUM, 0.625), (MIN_SUM, 1.0), (MIN_SUM, 0.625)]
PRIORS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def zero_prior_cases(draw):
    """(H, priors, syndrome, variant, scale, early_stop, max_iter)."""
    h = draw(sparse_matrices())
    priors = np.array(draw(st.lists(PRIORS, min_size=h.cols, max_size=h.cols)))
    syndrome = BitVec(h.rows, draw(st.integers(0, (1 << h.rows) - 1)))
    variant, scale = draw(st.sampled_from(VARIANTS))
    return h, priors, syndrome, variant, scale, draw(st.booleans()), draw(st.integers(1, 12))


# check 0 covers only cut columns and has syndrome 1
ALL_CUT_CHECK = (
    SparseBinMatrix(2, 3, [(0, 1), (1, 2)]), np.array([0.0, 0.0, 0.3]),
    BitVec.from_support(2, [0, 1]), PRODUCT_SUM, 1.0, True, 6,
)
# the min-sum check keeps a single column, whose message is min2 = +inf clipped
ONE_KEPT_COLUMN = (
    SparseBinMatrix(2, 4, [(0, 1, 2), (2, 3)]), np.array([0.0, 0.0, 0.2, 0.1]),
    BitVec.from_support(2, [0]), MIN_SUM, 0.625, False, 5,
)


class TestZeroPriorRemovesColumns:
    """A decode with priors of 0 is the decode on H without those columns."""

    @given(zero_prior_cases())
    @example(ALL_CUT_CHECK)
    @example(ONE_KEPT_COLUMN)
    @example(ONE_KEPT_COLUMN[:3] + (MIN_SUM, 1.0, True, 5))
    @settings(max_examples=300, deadline=None)
    def test_equals_decode_without_columns(self, case):
        h, priors, syndrome, variant, scale, early_stop, max_iter = case
        masked = np.flatnonzero(priors == 0.0)
        h2, kept = h.without_columns(masked.tolist())
        full = BpDecoder(h, variant, scale).decode(syndrome, priors, max_iter, early_stop)
        sub = BpDecoder(h2, variant, scale).decode(
            syndrome, priors[kept], max_iter, early_stop
        )
        assert full.soft[kept].tobytes() == sub.soft.tobytes()
        assert np.all(full.soft[masked] == 0.0)
        hard = np.zeros(h.cols, dtype=np.uint8)
        hard[kept] = sub.hard.to_dense()
        assert full.hard == BitVec.from_dense(hard)
        assert (full.converged, full.iterations_used) == (sub.converged, sub.iterations_used)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_graph_is_the_graph_without_columns(self, h, data):
        """Same check-major order, segments and stable variable-major
        permutation as the graph of the reduced matrix, in original columns."""
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=h.cols, max_size=h.cols)))
        g = TannerGraph(h, keep)
        h2, kept = h.without_columns(np.flatnonzero(~keep).tolist())
        g2 = TannerGraph(h2)
        assert g.nnz == g2.nnz
        assert np.array_equal(g.edge_var, kept[g2.edge_var])
        assert np.array_equal(g.var_seg_ids, kept[g2.var_seg_ids])
        for name in ("chk_seg_starts", "chk_seg_ids", "edge_seg",
                     "var_perm", "var_seg_starts", "var_group_ends"):
            assert np.array_equal(getattr(g, name), getattr(g2, name)), name


# (code, noise, rounds, p, trials, max_iter): BP fails often enough at each
# point that every variant takes both second-run prior choices
DIGEST_POINTS = [
    ("surface:5", "code-capacity", None, 0.1, 40, 25),
    ("surface:5", "pheno", 3, 0.03, 30, 40),
    ("bb:6,6", "circuit-bb", 3, 0.01, 16, 40),
]


DIGEST = "526664ac471c123d9ad52e02ad96963a66dca1121674f7de06a91ebe06118d1a"
# the same decode set with every decode run to max_iter
DIGEST_NO_EARLY_STOP = "217b5f009ec76963a01fd232f3c2229b620cd2d9d4f5e27fac9618c7dec70e31"


def decode_set_digest(early_stop: bool = True) -> str:
    """SHA-256 of the soft outputs, hard bits, convergence and iteration
    counts of a fixed decode set: first runs on code-capacity, pheno and
    circuit models with product-sum and min-sum (scale 1.0 and 0.625), and
    for every failed first run the zero-prior second runs of degeneracy
    cutting with reset and with posterior priors.  Every decode stops early
    or none does, as ``early_stop`` says."""
    sha = hashlib.sha256()
    second_runs = 0

    def run(dec, syndrome, priors, max_iter):
        out = dec.decode(syndrome, priors, max_iter, early_stop)
        sha.update(out.soft.tobytes())
        sha.update(repr((out.hard.bits, out.converged, out.iterations_used)).encode())
        return out

    for code, noise_model, rounds, p, trials, max_iter in DIGEST_POINTS:
        cfg = sim.ExperimentConfig(
            code=code, noise=noise_model, rounds=rounds, p=p, decoder="bp",
            trials=trials, seed=7,
        )
        model = sim.build_model(cfg)
        for variant, scale in [(PRODUCT_SUM, 0.625), (MIN_SUM, 1.0), (MIN_SUM, 0.625)]:
            dec = BpDecoder(model.check_matrix, variant, scale)
            for t in range(trials):
                syndrome = noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome
                first = run(dec, syndrome, model.priors, max_iter)
                if first.converged:
                    continue
                cuts = sorted(dc_cut_indices(model.degeneracy_matrix, first.soft, _dc_rng(t)))
                for base in (model.priors, first.soft):  # reset, posterior
                    second = np.array(base, dtype=float)
                    second[cuts] = 0.0
                    run(dec, syndrome, second, max_iter)
                    second_runs += 1
    # without early stopping, more first runs end on a failing iteration
    assert second_runs == (324 if early_stop else 334)
    return sha.hexdigest()


def test_decode_set_digest():
    """The digest was computed with the numpy min-sum kernel and with cut
    columns kept in the graph as masked edges, so it checks that taking
    them out changes no bit.  Where gcc is installed, this runs the
    compiled min-sum kernel."""
    if shutil.which("gcc") is not None:
        assert bp.min_sum_kernel() == "c"
    assert decode_set_digest() == DIGEST


def test_decode_set_digest_numpy_kernel(monkeypatch):
    monkeypatch.setattr(bp, "_load_kernel", lambda: None)
    assert bp.min_sum_kernel() == "numpy"
    assert decode_set_digest() == DIGEST


@pytest.mark.parametrize("kernel", ["c", "numpy"])
def test_decode_set_digest_without_early_stop(request, monkeypatch, kernel):
    """Every decode runs to ``max_iter`` and tests the syndrome only after
    its last iteration, for product-sum and min-sum alike."""
    if kernel == "c":
        request.getfixturevalue("c_kernel")
    else:
        monkeypatch.setattr(bp, "_load_kernel", lambda: None)
    assert bp.min_sum_kernel() == kernel
    assert decode_set_digest(early_stop=False) == DIGEST_NO_EARLY_STOP


@pytest.mark.parametrize("kernel", ["c", "numpy"])
def test_converged_before_first_iteration_returns_the_priors(request, monkeypatch, kernel):
    """The loop's first syndrome test passes: no iteration runs, the soft
    output is the priors bit for bit, a cut column's 0.0 included."""
    if kernel == "c":
        request.getfixturevalue("c_kernel")
    else:
        monkeypatch.setattr(bp, "_load_kernel", lambda: None)
    h = SparseBinMatrix(2, 4, [(0, 1), (2, 3)])
    priors = np.array([0.1, 0.7, 0.0, 0.3])
    for variant in (PRODUCT_SUM, MIN_SUM):
        out = BpDecoder(h, variant).decode(BitVec.from_support(2, [0]), priors, 10)
        assert out.converged and out.iterations_used == 0
        assert out.soft.tobytes() == np.array([0.1, 0.7, 0.0, 0.3]).tobytes()
        assert out.hard == BitVec.from_support(4, [1])


@pytest.mark.parametrize("kernel", ["c", "numpy"])
def test_negative_zero_prior_is_a_cut_column_and_warns_nothing(request, monkeypatch, kernel):
    """A prior of -0.0 cuts its column exactly as +0.0 does: the same
    bytes out, a soft output of +0.0, hard bit 0, and no warning."""
    if kernel == "c":
        request.getfixturevalue("c_kernel")
    else:
        monkeypatch.setattr(bp, "_load_kernel", lambda: None)
    h = SparseBinMatrix(2, 4, [(0, 1, 2), (1, 2, 3)])
    plus, minus = np.array([0.1, 0.7, 0.0, 0.3]), np.array([0.1, 0.7, -0.0, 0.3])
    for variant in (PRODUCT_SUM, MIN_SUM):
        dec = BpDecoder(h, variant)
        for bits in ((), (0,), (1,), (0, 1)):
            s = BitVec.from_support(2, bits)
            for max_iter, early_stop in ((1, True), (10, True), (10, False)):
                want = dec.decode(s, plus, max_iter, early_stop)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = dec.decode(s, minus, max_iter, early_stop)
                assert got.soft.tobytes() == want.soft.tobytes()
                assert not np.signbit(got.soft[2])
                assert got.hard == want.hard and got.hard[2] == 0
                assert (got.converged, got.iterations_used) == (
                    want.converged, want.iterations_used
                )


def test_numpy_kernel_huge_scale_warns_nothing(monkeypatch):
    """scale * 35 overflows at scale 1e308; the numpy kernel clips the
    result to +-35 like the C kernel, and must say nothing about it."""
    monkeypatch.setattr(bp, "_load_kernel", lambda: None)
    h = SparseBinMatrix(2, 3, [(0, 1), (1, 2)])
    dec = BpDecoder(h, MIN_SUM, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = dec.decode(BitVec.from_support(2, [0]), [0.1] * 3, 5)
    assert out.converged and mat_vec_t(out.hard, h) == BitVec.from_support(2, [0])


def test_failed_build_falls_back_to_numpy(monkeypatch, tmp_path, capfd):
    """A source the compiler rejects runs it once per build, native and
    then generic, not once per cache directory, and leaves no file."""
    monkeypatch.setattr(bp, "_CFLAGS", bp._CFLAGS + ("-fno-such-flag",))
    monkeypatch.setattr(bp, "_kernel", bp._UNLOADED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    runs = []
    run = subprocess.run

    def counted_run(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted_run)
    assert bp.min_sum_kernel() == "numpy"
    assert len(runs) == (2 if bp._cpu_flags() else 1)
    assert decode_set_digest() == DIGEST
    assert capfd.readouterr().out == ""
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # no library, no temp file


@pytest.fixture(scope="module")
def c_kernel():
    """The compiled min-sum kernel: skipped without gcc, an error with gcc
    if it did not build or load."""
    if shutil.which("gcc") is None:
        pytest.skip("gcc is not installed")
    kernel = bp._load_kernel()
    assert kernel is not None, "gcc is installed, but the min-sum kernel did not build or load"
    return kernel


def planted(rng: np.random.Generator, n: int, bound: float) -> np.ndarray:
    """n floats in [-bound, bound], most of them +-0.0, +-35, +-bound or
    one of three tied magnitudes."""
    tied = rng.uniform(0.0, 35.0, 3)
    pool = np.concatenate(([0.0, -0.0, 35.0, -35.0, bound, -bound], tied, -tied))
    out = rng.uniform(-bound, bound, n)
    pick = rng.random(n) < 0.6
    out[pick] = rng.choice(pool, int(pick.sum()))
    return out


@st.composite
def heavy_column_matrices(draw):
    """A matrix whose column 0 is in every row: weight 9, 129, 130 or 300,
    so the variable sum takes all three of numpy's pairwise branches."""
    rows = draw(st.sampled_from([9, 129, 130, 300]))
    cols = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SparseBinMatrix(rows, cols, [
        [0] + sorted(np.flatnonzero(rng.random(cols - 1) < 0.3) + 1) for _ in range(rows)
    ])


@st.composite
def min_sum_steps(draw):
    """(graph, lam, total, m_cv, syndrome, hard, scale, test): one min-sum
    iteration's inputs on any graph, cut columns included, with ties, +-0.0
    and +-35 planted."""
    h = draw(st.one_of(sparse_matrices(), heavy_column_matrices()))
    keep = np.array(draw(st.lists(st.booleans(), min_size=h.cols, max_size=h.cols)))
    g = TannerGraph(h, keep if draw(st.booleans()) else None)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hard = rng.random(h.cols) < 0.5
    parity = np.zeros(len(g.chk_seg_ids), dtype=np.uint8)
    if g.nnz:
        parity = (np.add.reduceat(hard[g.edge_var], g.chk_seg_starts) & 1).astype(np.uint8)
    flips = (rng.random(parity.shape) < draw(st.sampled_from([0.0, 0.5]))).astype(np.uint8)
    scale = draw(st.one_of(
        st.sampled_from([1.0, 0.625, 5e-324, 1e308]),
        st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    ))
    return (g, planted(rng, h.cols, 35.0), planted(rng, h.cols, 350.0),
            planted(rng, g.nnz, 35.0), parity ^ flips, hard, scale, draw(st.booleans()))


# single-edge checks (min2 = +inf) next to a check with a three-way tie at 0
SINGLE_EDGE_CHECKS = (
    TannerGraph(SparseBinMatrix(4, 5, [(0,), (1, 2, 3), (4,), (0, 4)])),
    np.array([0.0, 1.5, -2.0, 35.0, -0.0]),
    np.array([-0.0, 0.0, -0.0, 0.0, 35.0]),
    np.array([-0.0, 0.0, -0.0, 0.0, 35.0, -35.0, 2.5]),
    np.array([1, 0, 1, 0], dtype=np.uint8),
    np.zeros(5, dtype=bool),
    0.625,
    True,
)

# variable 0 gets -0.0 from both checks and has prior LLR -0.0, so its total
# is -0.0 only if the variable sum starts pairwise_sum from -0.0, as numpy does
NEGATIVE_ZERO_SUM = (
    TannerGraph(SparseBinMatrix(2, 3, [(0, 1), (0, 2)])),
    np.array([-0.0, 0.5, 0.5]),
    np.array([1.0, 0.0, 0.0]),
    np.zeros(4),
    np.array([1, 1], dtype=np.uint8),
    np.zeros(3, dtype=bool),
    1.0,
    False,
)


# columns of every degree from 1 to 10, interleaved, two of degrees 1, 2 and
# 9: every specialized variable loop of min_sum.c and var_sum past the 8/9
# boundary, with columns of one degree apart from each other
ALL_DEGREES_COLUMNS = [3, 1, 10, 2, 9, 4, 8, 5, 7, 6, 2, 9, 1]
ALL_DEGREES = SparseBinMatrix(12, len(ALL_DEGREES_COLUMNS), [
    [j for j, n in enumerate(ALL_DEGREES_COLUMNS) if (i - 3 * j) * 7 % 12 < n]
    for i in range(12)
])
# cut one column of degree 1, 4 and 9 each, and the one of degree 10
ALL_DEGREES_KEEP = ~np.isin(np.arange(ALL_DEGREES.cols), [1, 2, 5, 11])


def all_degrees_step(keep, test: bool) -> tuple:
    """A ``min_sum_steps`` case on ``ALL_DEGREES``, columns cut where
    ``keep`` is False."""
    g = TannerGraph(ALL_DEGREES, keep)
    rng = np.random.default_rng(14)
    cols = ALL_DEGREES.cols
    syndrome = (rng.random(len(g.chk_seg_ids)) < 0.5).astype(np.uint8)
    return (g, planted(rng, cols, 35.0), planted(rng, cols, 350.0), planted(rng, g.nnz, 35.0),
            syndrome, rng.random(cols) < 0.5, 0.625, test)


@given(min_sum_steps())
@example(SINGLE_EDGE_CHECKS)
@example(all_degrees_step(None, True))
@example(all_degrees_step(ALL_DEGREES_KEEP, False))
@example(SINGLE_EDGE_CHECKS[:6] + (1.0, False))
@example(NEGATIVE_ZERO_SUM)
@settings(max_examples=500, deadline=None)
def test_c_kernel_equals_numpy_kernel(c_kernel, case):
    """One compiled iteration, the decode entry point with ``max_iter`` 1,
    against numpy's pieces: the syndrome test, the v2c update, the check
    update, the clipped posterior totals and their signs."""
    g, lam, total, m_cv, syndrome, want_hard, scale, test = case
    hard = want_hard.copy()  # the kernel writes into it
    got_total, got_vc, got_cv = total.copy(), np.empty(g.nnz), m_cv.copy()

    def run():
        return bp._run_compiled(c_kernel, g, syndrome, lam, hard, got_total, got_vc, got_cv,
                                scale, 1, test)

    parity = np.zeros_like(syndrome)
    if g.nnz:
        parity = np.add.reduceat(hard[g.edge_var], g.chk_seg_starts) & 1
    if test and np.array_equal(parity, syndrome):
        assert run() == -1
        assert got_total.tobytes() == total.tobytes()
        assert got_cv.tobytes() == m_cv.tobytes()
        assert np.array_equal(hard, want_hard)
        return
    m_vc = np.clip(total[g.edge_var] - m_cv, -bp.LLR_CLAMP, bp.LLR_CLAMP)
    want_cv = bp._min_sum_numpy(g, m_vc, 1.0 - 2.0 * syndrome[g.edge_seg], scale)
    want_total = total.copy()
    if g.nnz:
        sums = np.add.reduceat(want_cv[g.var_perm], g.var_seg_starts)
        want_total[g.var_seg_ids] = np.clip(
            lam[g.var_seg_ids] + sums, -bp._TOTAL_CLAMP, bp._TOTAL_CLAMP)
    want_hard = want_hard.copy()
    want_hard[g.var_seg_ids] = want_total[g.var_seg_ids] <= 0.0
    assert run() == 1
    assert got_vc.tobytes() == m_vc.tobytes()
    assert got_cv.tobytes() == want_cv.tobytes()
    assert got_total.tobytes() == want_total.tobytes()
    assert np.array_equal(hard, want_hard)


def _pairwise(a: list) -> float:
    """numpy's pairwise_sum, in Python."""
    n = len(a)
    if n < 8:
        res = -0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        r = a[:8]
        i = 8
        while i < n - n % 8:
            r = [r[j] + a[i + j] for j in range(8)]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a[:n2]) + _pairwise(a[n2:])


def test_reduceat_sums_in_the_order_the_kernel_does():
    """``min_sum.c`` sums a variable's messages as ``np.add.reduceat`` does:
    the first term plus ``pairwise_sum`` of the rest.  This pins that order
    on the installed numpy; the kernel copies it."""
    rng = np.random.default_rng(2024)
    lengths = [*range(1, 21), 127, 128, 129, 130, 300]
    for n in lengths:
        for _ in range(40):
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            a[rng.random(n) < 0.2] = -0.0
            a[rng.random(n) < 0.2] = 35.0
            got = np.add.reduceat(a, [0])[0]
            x = a.tolist()
            want = x[0] if n == 1 else x[0] + _pairwise(x[1:])
            assert np.float64(want).tobytes() == got.tobytes(), (
                f"numpy {np.__version__} does not sum a length-{n} segment as "
                "a[0] + pairwise(a[1:]); min_sum.c's variable sum assumes it does"
            )


@st.composite
def decode_cases(draw):
    """(H, priors, syndrome, scale, max_iter): any small H or one with a
    heavy column, priors with 0 (cut), 0.5 and 1, any syndrome."""
    h = draw(st.one_of(sparse_matrices(), heavy_column_matrices()))
    priors = np.array(draw(st.lists(PRIORS, min_size=h.cols, max_size=h.cols)))
    syndrome = BitVec(h.rows, draw(st.integers(0, (1 << h.rows) - 1)))
    scale = draw(st.sampled_from([1.0, 0.625]))
    return h, priors, syndrome, scale, draw(st.integers(1, 12))


# an empty row with syndrome 1 never converges; one iteration only
EMPTY_ROW_ONE_ITERATION = (
    SparseBinMatrix(3, 4, [(0, 1), (), (2, 3)]), np.full(4, 0.2),
    BitVec.from_support(3, [0, 1]), 0.625, 1,
)


def band_decode(target: float) -> tuple:
    """(H, priors, syndrome, scale, max_iter): one check on columns 0 and 1
    whose column 0 ends every iteration with posterior total ``target``.

    Column 1's prior LLR clips to +35, so the check sends column 0
    ``scale * 35`` with the sign of its syndrome bit, on top of column 0's
    prior LLR: 0 for a positive target; for a negative one 2.2e-16, whose
    prior hard bit 0 keeps an early-stopping decode from converging before
    its first iteration.  (At -1e-300 that LLR would absorb the message, so
    that decode starts from 0 and converges at once when it stops early.)
    """
    p0 = 0.5 if target >= -1e-300 else np.nextafter(0.5, 0.0)
    lam0 = float(bp._llr(np.array([p0]))[0])
    return (SparseBinMatrix(1, 2, [(0, 1)]), np.array([p0, 1e-20]),
            BitVec(1, int(target < lam0)), abs(target - lam0) / 35.0, 4)


# Totals at and around 0, out to +-1e-12.  For 0 < t <= ~3.3e-16, numpy's
# 1 / (1 + exp(t)) rounds to 0.5 while the sign, the hard decision, says 0.
# A total of -0.0 cannot occur in a decode: log's prior LLR at 0.5 is +0.0,
# and +0.0 plus anything that sums to zero is +0.0.
BAND_TARGETS = [1e-300, -1e-300, 2.220446049250313e-16, 3.3e-16, -3.3e-16,
                1e-12, -1e-12, 0.999e-12, -0.999e-12]
BAND_DECODES = [band_decode(t) for t in BAND_TARGETS]
# both priors 0.5: every total is +0.0
ZERO_TOTALS = (SparseBinMatrix(1, 2, [(0, 1)]), np.array([0.5, 0.5]), BitVec(1, 1), 1.0, 4)


def test_band_decodes_land_on_their_totals(c_kernel):
    """Each band example reaches its total after every one of its iterations."""
    for target, (h, priors, syndrome, scale, _) in zip(BAND_TARGETS + [0.0],
                                                       BAND_DECODES + [ZERO_TOTALS]):
        g = TannerGraph(h)
        syn, lam = syndrome.to_dense()[g.chk_seg_ids], bp._llr(priors)
        hard, total = np.zeros(h.cols, dtype=bool), lam.copy()
        m_vc, m_cv = np.empty(g.nnz), np.zeros(g.nnz)
        for _ in range(3):  # each call runs one more iteration on the same buffers
            assert bp._run_compiled(c_kernel, g, syn, lam, hard, total, m_vc, m_cv, scale, 1,
                                    False) == 1
            assert total[0] == pytest.approx(target, rel=1e-9, abs=0.0)
            assert np.signbit(total[0]) == np.signbit(target)


# product-sum: column 1's prior LLR is log(1 + 2**-52) = 2.2e-16, and the
# check passes it on to column 0 unchanged, so both totals end at 2.2e-16
PRODUCT_SUM_BAND = (SparseBinMatrix(1, 2, [(0, 1)]), np.array([0.5, np.nextafter(0.5, 0.0)]),
                    BitVec(1, 0), 1.0, 4)

SIGN_CASES = {  # (variant, case, hard bit of both columns)
    "min-sum-2.2e-16": (MIN_SUM, band_decode(2.220446049250313e-16), 0),
    "min-sum-3.3e-16": (MIN_SUM, band_decode(3.3e-16), 0),
    "min-sum-zero": (MIN_SUM, ZERO_TOTALS, 1),
    "product-sum-2.2e-16": (PRODUCT_SUM, PRODUCT_SUM_BAND, 0),
    "product-sum-zero": (PRODUCT_SUM, ZERO_TOTALS, 1),
}


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("kernel", ["c", "numpy"])
@pytest.mark.parametrize("name", list(SIGN_CASES))
def test_hard_decision_is_the_sign_of_the_total(request, monkeypatch, name, kernel,
                                                early_stop):
    """The hard bit is ``total <= 0``.  Column 0 ends with soft output 0.5
    in every case: a total in (0, ~3.3e-16] says 0, so the decode converges
    after its first iteration, and a total of +0.0 says 1, so it never does."""
    variant, (h, priors, syndrome, scale, max_iter), bit = SIGN_CASES[name]
    if kernel == "c":
        request.getfixturevalue("c_kernel")
    else:
        monkeypatch.setattr(bp, "_load_kernel", lambda: None)
    out = BpDecoder(h, variant, scale).decode(syndrome, priors, max_iter, early_stop)
    assert out.soft[0] == 0.5
    assert out.hard == BitVec.from_dense(np.full(2, bit, dtype=bool))
    assert out.converged == (bit == 0)
    assert out.iterations_used == (1 if early_stop and bit == 0 else max_iter)


def test_one_kernel_call_per_decode(c_kernel):
    """A min-sum decode calls ``min_sum_decode`` once, with its
    ``max_iter``, also where totals land at or near 0 and where it
    converges before its first iteration: the kernel's first syndrome test
    is the only test of the prior hard decision."""
    cfg = sim.ExperimentConfig(code="bb:6,6", noise="code-capacity", p=0.15, decoder="bp",
                               trials=30, seed=7)
    model = sim.build_model(cfg)
    trials = [(model.check_matrix, model.priors,
               noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome, 1.0, 50)
              for t in range(cfg.trials)]
    zero = (model.check_matrix, model.priors, BitVec.zeros(model.check_matrix.rows), 1.0, 50)
    calls = []
    before_first = 0

    def counting(state, max_iter, test):
        calls.append(max_iter)
        return c_kernel(state, max_iter, test)

    with mock.patch.object(bp, "_load_kernel", lambda: counting):
        for h, priors, syndrome, scale, max_iter in [*BAND_DECODES, ZERO_TOTALS,
                                                     EMPTY_ROW_ONE_ITERATION, zero, *trials]:
            dec = BpDecoder(h, MIN_SUM, scale)
            for early_stop in (True, False):
                calls.clear()
                out = dec.decode(syndrome, priors, max_iter, early_stop)
                assert calls == [max_iter]
                before_first += out.converged and out.iterations_used == 0
    assert before_first > 0


def band_examples(test):
    for case in BAND_DECODES + [ZERO_TOTALS]:
        test = example(case=case)(test)
    return test


def all_degrees_decode(cut: bool) -> tuple:
    """A ``decode_cases`` case on ``ALL_DEGREES``; with ``cut``, the columns
    ``ALL_DEGREES_KEEP`` leaves out get prior 0."""
    rng = np.random.default_rng(1414)
    priors = rng.uniform(0.02, 0.3, ALL_DEGREES.cols)
    if cut:
        priors[~ALL_DEGREES_KEEP] = 0.0
    return ALL_DEGREES, priors, BitVec(ALL_DEGREES.rows, 0b101100100111), 0.625, 12


@pytest.mark.parametrize("early_stop", [True, False])
@given(case=decode_cases())
@example(case=EMPTY_ROW_ONE_ITERATION)
@example(case=EMPTY_ROW_ONE_ITERATION[:4] + (5,))
@example(case=all_degrees_decode(False))
@example(case=all_degrees_decode(True))
@band_examples
@settings(max_examples=200, deadline=None)
def test_compiled_decode_equals_numpy_decode(c_kernel, early_stop, case):
    """Whole min-sum decodes: the same soft bytes, hard bits, convergence,
    iterations and edge counters from the compiled and the numpy loop."""
    h, priors, syndrome, scale, max_iter = case
    results = []
    for kernel in (c_kernel, None):
        with mock.patch.object(bp, "_load_kernel", lambda: kernel):
            dec = BpDecoder(h, MIN_SUM, scale)
            out = dec.decode(syndrome, priors, max_iter, early_stop)
        results.append((out.soft.tobytes(), out.hard, out.converged, out.iterations_used,
                        dec.v2c_edge_updates, dec.c2v_edge_updates))
    assert results[0] == results[1]


@pytest.mark.parametrize("keep", [None, ALL_DEGREES_KEEP, np.zeros(ALL_DEGREES.cols, bool)],
                         ids=["all", "cut", "none"])
def test_degree_order_is_stable_by_degree(keep):
    """The variable-major view lists the variable segments by degree, then
    by column, each with its own edges in check-major order, and
    ``var_group_ends`` ends each group of degree 1 to 8 after its last
    variable."""
    g = TannerGraph(ALL_DEGREES, keep)
    starts, ids, perm, ends = g.var_seg_starts, g.var_seg_ids, g.var_perm, g.var_group_ends
    assert all(a.dtype == np.intp for a in (starts, ids, perm, ends))
    deg = np.diff(starts, append=g.nnz)
    columns = np.bincount(g.edge_var, minlength=ALL_DEGREES.cols)
    assert list(zip(deg.tolist(), ids.tolist())) == sorted(
        (int(columns[j]), j) for j in np.flatnonzero(columns).tolist())
    assert ends.tolist() == [int(np.count_nonzero(deg <= n)) for n in range(1, 9)]
    for v, j in enumerate(ids.tolist()):
        edges = np.flatnonzero(g.edge_var == j)
        assert perm[starts[v]:starts[v] + deg[v]].tolist() == edges.tolist()
    assert sorted(perm.tolist()) == list(range(g.nnz))
    if keep is None:
        assert sorted(deg.tolist()) == sorted(ALL_DEGREES_COLUMNS)


def test_kernel_keeps_no_state_between_calls(c_kernel):
    """Two threads decode different graphs through the kernel at once
    (ctypes lets go of the GIL during each call) and get the bytes the
    same decodes give one after the other."""
    cfg = sim.ExperimentConfig(code="bb:6,6", noise="code-capacity", p=0.1, decoder="bp",
                               trials=16, seed=3)
    model = sim.build_model(cfg)
    rng = np.random.default_rng(5)
    jobs = [
        (model.check_matrix, [(noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome,
                               model.priors) for t in range(cfg.trials)]),
        (ALL_DEGREES, [(BitVec(ALL_DEGREES.rows, int(rng.integers(1, 1 << ALL_DEGREES.rows))),
                        all_degrees_decode(cut)[1]) for cut in (False, True) * 80]),
    ]
    start = threading.Barrier(len(jobs))

    def decode_all(h, cases, barrier=None):
        dec = BpDecoder(h, MIN_SUM, 0.625)
        if barrier is not None:
            barrier.wait()
        outs = [dec.decode(syndrome, priors, 1000, early_stop=False) for syndrome, priors in cases]
        return [(o.soft.tobytes(), o.hard, o.converged, o.iterations_used) for o in outs]

    one_by_one = [decode_all(h, cases) for h, cases in jobs]
    with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
        futures = [pool.submit(decode_all, h, cases, start) for h, cases in jobs]
        at_once = [f.result() for f in futures]
    assert at_once == one_by_one


def test_failed_native_build_falls_back_to_a_generic_build(c_kernel, monkeypatch, tmp_path):
    """When the ``-march=native`` build fails, the kernel is built without
    that flag, under its own name, and gives the same bits."""
    source = bp._KERNEL_SOURCE.read_bytes()
    native, native_flags = bp._library(source)
    if "-march=native" not in native_flags:
        pytest.skip("no CPU flags line: the library is built generic already")
    generic, generic_flags = bp._library(source, native=False)
    assert generic != native and generic_flags == bp._CFLAGS
    build = bp._cached_library

    def no_native_build(directory, name, cflags):
        if "-march=native" in cflags:
            raise bp._BuildError("the native build failed")
        return build(directory, name, cflags)

    monkeypatch.setattr(bp, "_cached_library", no_native_build)
    monkeypatch.setattr(bp, "_kernel", bp._UNLOADED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    assert bp.min_sum_kernel() == "c"
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [generic]
    assert decode_set_digest() == DIGEST


def test_kernel_compiles_without_warnings(tmp_path):
    if shutil.which("gcc") is None:
        pytest.skip("gcc is not installed")
    _, cflags = bp._library(bp._KERNEL_SOURCE.read_bytes())
    proc = subprocess.run(
        [bp._CC, *cflags, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "min_sum.so"),
         str(bp._KERNEL_SOURCE)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_two_processes_build_one_library(c_kernel, tmp_path):
    src = str(Path(bp.__file__).resolve().parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "from qldpc_dc import bp; print(bp.min_sum_kernel())"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    assert [out for out, _ in outs] == ["c\n", "c\n"]
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == 1 and files[0].suffix == ".so", files


def test_library_name_names_the_cpu(monkeypatch):
    """-march=native ties the library to the CPU, so the CPU's flags line is
    part of its name; without one the build is generic."""
    source = bp._KERNEL_SOURCE.read_bytes()
    names = set()
    for line in ("flags\t\t: fpu sse2", "flags\t\t: fpu sse2 avx512f", ""):
        monkeypatch.setattr(bp, "_cpu_flags", lambda line=line: line)
        name, cflags = bp._library(source)
        names.add(name)
        assert cflags == bp._CFLAGS + (("-march=native",) if line else ())
        assert "-ffast-math" not in cflags
    assert len(names) == 3


def test_cpu_flags_is_one_line():
    line = bp._cpu_flags()
    assert line == "" or line.split(":")[0].strip() in ("flags", "Features")
    assert "\n" not in line


def test_cached_library_loads_without_a_compiler(c_kernel, tmp_path):
    """A second process finds the library in the cache: it loads the kernel
    with no gcc on its PATH and never imports subprocess."""
    src = str(Path(bp.__file__).resolve().parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from qldpc_dc import bp; "
            "print(bp.min_sum_kernel(), 'subprocess' in sys.modules)")
    (tmp_path / "bin").mkdir()
    outs = []
    for path in (env.get("PATH", os.defpath), str(tmp_path / "bin")):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, "PATH": path},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs == ["c True\n", "c False\n"]


def test_decoder_pickles_after_a_compiled_decode(c_kernel):
    """The graph's kernel pointers stay in the process that took them."""
    h = SparseBinMatrix(3, 4, [(0, 1), (1, 2), (2, 3)])
    syndrome = BitVec.from_support(3, [0])
    dec = BpDecoder(h, MIN_SUM, 0.625)
    first = dec.decode(syndrome, [0.1] * 4, 20)
    copy = pickle.loads(pickle.dumps(dec))
    assert "min_sum_graph" not in copy.graph.__dict__
    again = copy.decode(syndrome, [0.1] * 4, 20)
    assert (again.soft.tobytes(), again.hard, again.iterations_used) == (
        first.soft.tobytes(), first.hard, first.iterations_used)
