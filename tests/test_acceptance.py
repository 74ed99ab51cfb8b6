"""Acceptance gate: every criterion at its stated tolerance.

Each check prints one `[acceptance] ...: PASS/FAIL` line (run pytest with
-s to stream them).  Criterion 4d asserts the circuit-level degeneracy
matrix column weight exactly as the source claims it (7); the matrix that
satisfies every orthogonality, completeness, and row-weight requirement
has maximum column weight 8, so that single subclaim is expected red
(the counting argument lives next to the xfail mark below).
"""

import time

import numpy as np
import pytest

from circuit_oracle import build_bb_circuit, enumerate_fault_mechanisms
from helpers import exact_marginals_vectorized, random_forest_checks
from qldpc_dc import noise
from qldpc_dc.bp import MIN_SUM, PRODUCT_SUM, BpDecoder
from qldpc_dc.codes import bb_params, build_bb, build_rotated_surface
from qldpc_dc.detmodel import (
    build_bb_circuit_dcm,
    build_bb_circuit_ddm,
    build_bb_circuit_model,
    build_pheno_model,
    code_capacity_model,
    combine_odd_parity,
    find_low_weight_trivial,
)
from qldpc_dc.gf2 import BitVec, mat_mat_t
from qldpc_dc.postproc import (
    DcConfig,
    DecodeStatus,
    MaskingMode,
    SecondRunPriors,
    bp_dc_decode,
    dc_cut_indices,
)
from qldpc_dc.sim import (
    ExperimentConfig,
    build_model,
    decode,
    default_max_iter,
    intervals_overlap,
    run_trials,
)

pytestmark = pytest.mark.acceptance

BB_ACCEPTANCE_SCALE = 1.0  # plain min-sum; see decisions notes


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_code_construction():
    t0 = time.monotonic()
    for (l, m), (n, k) in {(6, 6): (72, 12), (9, 6): (108, 8), (12, 6): (144, 12)}.items():
        code = build_bb(bb_params(l, m))
        report(
            f"1 build_bb({l},{m})",
            (code.n, code.k) == (n, k),
            f"n={code.n} k={code.k}",
        )
    for d in (3, 5, 7):
        code = build_rotated_surface(d)
        report(f"1 surface d={d}", (code.n, code.k) == (d * d, 1))
    elapsed = time.monotonic() - t0
    report("1 runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_2_orthogonality_identities():
    codes = [build_rotated_surface(3), build_rotated_surface(5),
             build_rotated_surface(7), build_bb(bb_params(6, 6)),
             build_bb(bb_params(9, 6)), build_bb(bb_params(12, 6))]
    for code in codes:
        ok = (
            mat_mat_t(code.hz, code.hx).nnz == 0
            and mat_mat_t(code.oz, code.hx).nnz == 0
            and mat_mat_t(code.ox, code.hz).nnz == 0
        )
        report(f"2 CSS identities {code.label}", ok)
    pheno_cases = [
        (build_rotated_surface(3), 3),
        (build_rotated_surface(5), 5),
        (build_bb(bb_params(6, 6)), 6),
    ]
    for code, t in pheno_cases:
        model = build_pheno_model(code, t, 0.01)
        ok = (
            mat_mat_t(model.degeneracy_matrix, model.check_matrix).nnz == 0
            and mat_mat_t(model.degeneracy_matrix, model.observables).nnz == 0
        )
        report(f"2 pheno orthogonality {code.label} T={t}", ok)
    for l, m in ((6, 6), (9, 6), (12, 6)):
        model = build_bb_circuit_model(bb_params(l, m), 2, 0.001)
        ok = (
            mat_mat_t(model.degeneracy_matrix, model.check_matrix).nnz == 0
            and mat_mat_t(model.degeneracy_matrix, model.observables).nnz == 0
        )
        report(f"2 circuit orthogonality bb l={l} m={m}", ok)


def test_criterion_3_bp_exactness_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    instances = 0
    while instances < 100:
        h = random_forest_checks(rng)
        priors = rng.uniform(0.01, 0.49, h.cols)
        x = (rng.random(h.cols) < 0.3).astype(np.uint8)
        s = h.to_dense() @ x % 2
        out = BpDecoder(h).decode(
            BitVec.from_dense(s), priors, max_iter=40, early_stop=False
        )
        exact = exact_marginals_vectorized(h, s, priors)
        worst = max(worst, float(np.abs(out.soft - exact).max()))
        instances += 1
    report(
        "3 product-sum tree exactness (100 instances)",
        worst < 1e-9,
        f"worst |soft - posterior| = {worst:.2e}",
    )


def test_criterion_4a_pheno_dcm_weights():
    for code, r, c in [
        (build_rotated_surface(5), 4, 2),
        (build_bb(bb_params(6, 6)), 6, 3),
    ]:
        model = build_pheno_model(code, 3, 0.01)
        rw = max(len(s) for s in model.check_matrix.row_supports)
        cw = max(len(s) for s in model.check_matrix.col_supports)
        report(
            f"4a pheno DCM weights {code.label}",
            rw <= r + 2 and cw <= c,
            f"row {rw} <= {r + 2}, col {cw} <= {c}",
        )


def test_criterion_4b_pheno_ddm_weights():
    for code, r, c in [
        (build_rotated_surface(5), 4, 2),
        (build_bb(bb_params(6, 6)), 6, 3),
    ]:
        ddm = build_pheno_model(code, 3, 0.01).degeneracy_matrix
        bound = max(r, c + 2)
        rw = max(len(s) for s in ddm.row_supports)
        cw = max(len(s) for s in ddm.col_supports)
        report(
            f"4b pheno DDM weights {code.label}",
            rw <= bound and cw <= bound,
            f"row {rw}, col {cw} <= {bound}",
        )


def test_criterion_4c_circuit_dcm_weights():
    model = build_bb_circuit_dcm(bb_params(6, 6), 2, 0.001)
    rw = max(len(s) for s in model.check_matrix.row_supports)
    cw = max(len(s) for s in model.check_matrix.col_supports)
    report("4c circuit DCM weights", rw == 35 and cw == 6, f"row {rw}=35, col {cw}=6")


@pytest.mark.xfail(
    reason="source-internal inconsistency: the printed degeneracy blocks plus the "
    "weight-3 completeness requirement force max column weight 8, not the quoted 7",
    strict=True,
)
def test_criterion_4d_circuit_ddm_weights():
    ddm = build_bb_circuit_ddm(bb_params(6, 6), 2)
    rw = max(len(s) for s in ddm.row_supports)
    cw = max(len(s) for s in ddm.col_supports)
    report("4d circuit DDM row weight", rw == 6, f"row {rw}=6")
    report("4d circuit DDM col weight", cw == 7, f"col {cw}=7")


def test_criterion_5_trivial_error_suite():
    t0 = time.monotonic()
    model = build_bb_circuit_model(bb_params(6, 6), 2, 0.001)
    triv = find_low_weight_trivial(model.check_matrix, model.observables, 3)
    low = [v for v in triv if v.weight() <= 2]
    report("5 bb72 no weight-1/2 trivials", len(low) == 0, f"found {len(low)}")
    rows = set(model.degeneracy_matrix.row_supports)
    missing = [v for v in triv if v.weight() == 3 and v.support not in rows]
    report(
        "5 bb72 weight-3 trivials all in DDM",
        len(missing) == 0,
        f"{len(triv)} found, {len(missing)} missing",
    )
    params108 = bb_params(9, 6)
    dcm = build_bb_circuit_dcm(params108, 2, 0.001)
    w3 = {
        v.support
        for v in find_low_weight_trivial(dcm.check_matrix, dcm.observables, 3)
        if v.weight() == 3
    }
    without = set(build_bb_circuit_ddm(params108, 2, include_extra=False).row_supports)
    with_extra = set(build_bb_circuit_ddm(params108, 2, include_extra=True).row_supports)
    report("5 bb108 fails without extra block", not (w3 <= without),
           f"{len(w3 - without)} uncovered")
    report("5 bb108 passes with extra block", w3 <= with_extra)
    elapsed = time.monotonic() - t0
    report("5 runtime < 10 min", elapsed < 600, f"{elapsed:.1f}s")


def test_criterion_6_enumerator_cross_check():
    p = 0.001
    params = bb_params(6, 6)
    enum = enumerate_fault_mechanisms(build_bb_circuit(params, 2), p)
    expl = build_bb_circuit_dcm(params, 2, p)

    def multiset(model):
        return sorted(
            (model.check_matrix.col(c), model.observables.col(c))
            for c in range(model.check_matrix.cols)
        )

    report(
        "6 signature multisets equal",
        multiset(enum) == multiset(expl),
        f"{enum.check_matrix.cols} vs {expl.check_matrix.cols} mechanisms",
    )
    closed = 0.5 * (1 - (1 - 2 * p / 15) ** 8)
    got = combine_odd_parity([p / 15] * 8)
    report(
        "6 worked grouping probability",
        abs(got - closed) < 1e-12,
        f"|{got:.12e} - closed form| = {abs(got - closed):.1e}",
    )
    # the grouped mechanism itself must carry that probability: locate the
    # family of data errors on R qubits after their first extraction CNOT
    sig_prior = {
        (enum.check_matrix.col(c), enum.observables.col(c)): enum.priors[c]
        for c in range(enum.check_matrix.cols)
    }
    from qldpc_dc.detmodel import _bb_columns

    col = _bb_columns(36)
    c = col(0, "mid_R1", 7)
    key = (expl.check_matrix.col(c), expl.observables.col(c))
    report(
        "6 grouped mechanism prior matches closed form",
        abs(sig_prior[key] - closed) < 1e-12,
        f"diff = {abs(sig_prior[key] - closed):.1e}",
    )


def test_criterion_7_desk_scale_statistics():
    t0 = time.monotonic()
    trials = 10_000
    surface = {}
    for decoder, sp in [
        ("bp", None), ("bp-dc", "posterior"),
        ("bp-osd", None), ("bp-dc-osd", "posterior"),
    ]:
        cfg = ExperimentConfig(
            code="surface:3", noise="code-capacity", p=0.05, decoder=decoder,
            trials=trials, seed=7, bp_variant=PRODUCT_SUM, dc_second_priors=sp,
        )
        surface[decoder] = run_trials(cfg)
    s_bp, s_dc = surface["bp"], surface["bp-dc"]
    report(
        "7 surface d=3: BP+DC < BP, CIs separated",
        s_dc.failure_rate < s_bp.failure_rate
        and not intervals_overlap(
            (s_dc.ci_low, s_dc.ci_high), (s_bp.ci_low, s_bp.ci_high)
        ),
        f"bp={s_bp.failure_rate:.4f} dc={s_dc.failure_rate:.4f}",
    )
    s_osd, s_dcosd = surface["bp-osd"], surface["bp-dc-osd"]
    report(
        "7 surface d=3: BP+DC+OSD ~ BP+OSD, CIs overlap",
        intervals_overlap(
            (s_dcosd.ci_low, s_dcosd.ci_high), (s_osd.ci_low, s_osd.ci_high)
        ),
        f"osd={s_osd.failure_rate:.4f} dcosd={s_dcosd.failure_rate:.4f}",
    )
    bb = {}
    for decoder, sp in [("bp", None), ("bp-dc", "reset")]:
        cfg = ExperimentConfig(
            code="bb:6,6", noise="code-capacity", p=0.05, decoder=decoder,
            trials=trials, seed=7, bp_variant=MIN_SUM,
            min_sum_scale=BB_ACCEPTANCE_SCALE, dc_second_priors=sp,
        )
        bb[decoder] = run_trials(cfg)
    b_bp, b_dc = bb["bp"], bb["bp-dc"]
    report(
        "7 bb72: BP+DC(reset) < BP, CIs separated",
        b_dc.failure_rate < b_bp.failure_rate
        and not intervals_overlap(
            (b_dc.ci_low, b_dc.ci_high), (b_bp.ci_low, b_bp.ci_high)
        ),
        f"bp={b_bp.failure_rate:.4f} dc={b_dc.failure_rate:.4f}",
    )
    elapsed = time.monotonic() - t0
    report("7 runtime < 15 min", elapsed < 900, f"{elapsed:.0f}s")


def test_circuit_level_trial_contracts():
    """Trial by trial on bb:6,6 circuit T=3, at the paper's max_iter: where
    BP converges, BP+DC returns BP's result; where BP+DC converges,
    BP+DC+OSD returns BP+DC's; and DC rescues some of BP's failures.  The
    trials are ``run_trials``'s: samples and DC seeds come from each
    trial's own generator."""
    cfg = ExperimentConfig(
        code="bb:6,6", noise="circuit-bb", rounds=3, p=0.01, decoder="bp",
        trials=40, seed=3, bp_variant=MIN_SUM, min_sum_scale=BB_ACCEPTANCE_SCALE,
    )
    model = build_model(cfg)
    max_iter = default_max_iter(cfg, model)
    dec = BpDecoder(model.check_matrix, MIN_SUM, BB_ACCEPTANCE_SCALE)
    same_as_bp = same_as_dc = bp_failed = rescued = 0
    for t in range(cfg.trials):
        rng = noise.trial_rng(cfg.seed, t)
        sample = noise.make_trial(model, rng)
        dc_cfg = DcConfig(SecondRunPriors.RESET_TO_PRIOR, int(rng.integers(0, 2**63)))
        bp, dc, dc_osd = (
            decode(name, dec, sample.syndrome, model.priors, max_iter,
                   model.degeneracy_matrix, dc_cfg)
            for name in ("bp", "bp-dc", "bp-dc-osd")
        )
        if bp.status is DecodeStatus.CONVERGED_FIRST_BP:
            same_as_bp += (dc.estimate, dc.status, dc.bp_iterations) == (
                bp.estimate, bp.status, bp.bp_iterations)
        else:
            bp_failed += 1
            rescued += dc.status is DecodeStatus.CONVERGED_AFTER_DC
        if dc.status is not DecodeStatus.FAILED:
            same_as_dc += (dc_osd.estimate, dc_osd.status, dc_osd.cut_indices.tolist(),
                           dc_osd.bp_iterations) == (
                dc.estimate, dc.status, dc.cut_indices.tolist(), dc.bp_iterations)
    converged = cfg.trials - bp_failed
    report("circuit bb72 T=3: BP+DC == BP where BP converges",
           same_as_bp == converged, f"{same_as_bp}/{converged}")
    report("circuit bb72 T=3: BP+DC+OSD == BP+DC where BP+DC converges",
           same_as_dc == converged + rescued, f"{same_as_dc}/{converged + rescued}")
    report("circuit bb72 T=3: DC rescues some BP failures",
           0 < rescued < bp_failed, f"{rescued} of {bp_failed}")


def test_criterion_8_dc_contracts():
    from qldpc_dc.gf2 import SparseBinMatrix

    # cut-index locality via sentinel poisoning
    h = SparseBinMatrix(3, 10, [(0, 4), (4, 5, 6), (8, 9)])
    soft = np.full(10, 0.25)
    soft[5] = 0.01
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    clean = dc_cut_indices(h, soft, rng)
    poisoned = soft.copy()
    covered = {j for sup in h.row_supports for j in sup}
    poisoned[[j for j in range(10) if j not in covered]] = np.nan
    rng2 = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    report("8 cut locality (sentinel poisoning)",
           np.array_equal(dc_cut_indices(h, poisoned, rng2), clean))

    # masking-mode equivalence and the two-run iteration bound, 500 BB trials
    code = build_bb(bb_params(6, 6))
    model = code_capacity_model(code, 0.05)
    t_iter = code.n
    outcomes = {}
    max_total_iters = 0
    for mode in (MaskingMode.ZERO_PRIORS, MaskingMode.DELETE_COLUMNS):
        per_trial = []
        for t in range(500):
            sample = noise.make_trial(model, noise.trial_rng(13, t))
            cfg = DcConfig(
                second_run_priors=SecondRunPriors.RESET_TO_PRIOR,
                rng_seed=t, masking_mode=mode,
            )
            res = bp_dc_decode(
                code.hz, code.hx, sample.syndrome, model.priors, t_iter, cfg,
                variant=MIN_SUM, min_sum_scale=BB_ACCEPTANCE_SCALE,
            )
            per_trial.append((res.status, res.estimate))
            max_total_iters = max(max_total_iters, sum(res.bp_iterations))
        outcomes[mode] = per_trial
    report(
        "8 ZeroPriors == DeleteColumns on 500 trials",
        outcomes[MaskingMode.ZERO_PRIORS] == outcomes[MaskingMode.DELETE_COLUMNS],
    )
    report(
        "8 total BP iterations <= 2 T_iter",
        max_total_iters <= 2 * t_iter,
        f"max {max_total_iters} <= {2 * t_iter}",
    )

    # tie-break uniformity on an all-tied row
    from scipy.stats import chi2 as chi2_dist

    h1 = SparseBinMatrix(1, 4, [(0, 1, 2, 3)])
    tied = np.full(4, 0.5)
    counts = np.zeros(4)
    n_seeds = 4000
    for seed in range(n_seeds):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, 1], dtype=np.uint64))
        )
        (cut,) = dc_cut_indices(h1, tied, gen)
        counts[cut] += 1
    chi2 = float(((counts - n_seeds / 4) ** 2 / (n_seeds / 4)).sum())
    pval = float(chi2_dist.sf(chi2, df=3))
    report("8 tie-break uniformity chi-square", pval > 0.001, f"p-value {pval:.4f}")


def test_criterion_9_determinism(tmp_path):
    from qldpc_dc.cli import main

    args = [
        "simulate", "--code", "bb:6,6", "--noise", "code-capacity",
        "--p", "0.05", "--decoder", "bp-dc", "--dc-second-priors", "reset",
        "--bp-variant", "min-sum", "--min-sum-scale", str(BB_ACCEPTANCE_SCALE),
        "--trials", "1000", "--seed", "7",
    ]
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert main(args + ["--threads", "4", "--out", str(c)]) == 0
    report("9 simulate byte-identical rerun", a.read_bytes() == b.read_bytes())
    report("9 simulate independent of --threads", a.read_bytes() == c.read_bytes())

    sweep = [
        "sweep", "--code", "surface:3", "--noise", "code-capacity",
        "--p", "0.02,0.05", "--decoders", "bp,bp-osd",
        "--trials", "400", "--seed", "11",
    ]
    d, e = tmp_path / "d.csv", tmp_path / "e.csv"
    assert main(sweep + ["--out", str(d)]) == 0
    assert main(sweep + ["--threads", "3", "--out", str(e)]) == 0
    report("9 sweep byte-identical across widths", d.read_bytes() == e.read_bytes())
