"""Shared test oracles: random acyclic instances, exhaustive posteriors,
the row-elimination OSD-0 solver that ``gf2.solve`` replaced, the column
deletion that the CSR ``without_columns`` replaced, OSD-0 after
degeneracy cutting on the cut-reduced matrix, the three decode pipelines
as they were before ``postproc.run_pipeline`` replaced them, the per-row
loops that the numpy Tanner graph build and DC cut replaced, greedy
logical-weight reduction, and the Hypothesis strategy for small sparse
matrices."""

from typing import Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from qldpc_dc.bp import PRODUCT_SUM, BpDecoder
from qldpc_dc.gf2 import BitVec, SparseBinMatrix
from qldpc_dc.postproc import (
    DcConfig,
    DecodeResult,
    DecodeStatus,
    InconsistentSystemError,
    MaskingMode,
    SecondRunPriors,
    _dc_rng,
    dc_cut_indices,
    osd0_decode,
)


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=10):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return draw(sparse_matrices_of(rows, cols))


@st.composite
def sparse_matrices_of(draw, rows, cols):
    sups = [
        draw(st.sets(st.integers(0, cols - 1), max_size=cols))
        for _ in range(rows)
    ]
    return SparseBinMatrix(rows, cols, sups)


def random_forest_checks(rng: np.random.Generator) -> SparseBinMatrix:
    """Random acyclic parity-check structure on 2..16 variables.

    Checks join variables drawn from distinct union-find components, so
    the bipartite Tanner graph is always a forest.
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


def exact_marginals_vectorized(h: SparseBinMatrix, s_dense, priors) -> np.ndarray:
    """Exhaustive syndrome-conditioned marginals over all 2^n patterns."""
    nv = h.cols
    idx = np.arange(1 << nv, dtype=np.uint32)
    bits = ((idx[:, None] >> np.arange(nv, dtype=np.uint32)) & 1).astype(np.uint8)
    syn = bits @ h.to_dense().T % 2
    mask = np.all(syn == np.asarray(s_dense, dtype=np.uint8), axis=1)
    priors = np.asarray(priors, dtype=float)
    logw = bits @ np.log(priors / (1 - priors)) + np.log(1 - priors).sum()
    w = np.where(mask, np.exp(logw), 0.0)
    return (w @ bits) / w.sum()


def reference_check_major(h: SparseBinMatrix, keep: Optional[np.ndarray] = None) -> dict:
    """``TannerGraph(h, keep)``'s check-major arrays as its loop over rows
    built them, each row's support filtered by ``keep`` in Python."""
    edge_var, seg_starts, seg_chk, counts = [], [], [], []
    for i, sup in enumerate(h.row_supports):
        if keep is not None:
            sup = [j for j in sup if keep[j]]
        if sup:
            seg_starts.append(len(edge_var))
            seg_chk.append(i)
            counts.append(len(sup))
            edge_var.extend(sup)
    return {
        "edge_var": np.asarray(edge_var, dtype=np.intp),
        "chk_seg_starts": np.asarray(seg_starts, dtype=np.intp),
        "chk_seg_ids": np.asarray(seg_chk, dtype=np.intp),
        "edge_seg": np.repeat(np.arange(len(seg_chk), dtype=np.intp), counts),
    }


def reference_dc_cut_indices(h_deg: SparseBinMatrix, soft, rng: np.random.Generator) -> frozenset:
    """``dc_cut_indices`` as its loop over rows was: each row's minimum and
    ties in support order, ``rng.integers(len(ties))`` for a tied row."""
    cuts = set()
    for i, support in enumerate(h_deg.row_supports):
        if not support:
            raise ValueError(f"degeneracy row {i} has empty support")
        best = None
        ties: list[int] = []
        for idx in support:
            v = soft[idx]
            if best is None or v < best:
                best = v
                ties = [idx]
            elif v == best:
                ties.append(idx)
        if len(ties) == 1:
            cuts.add(ties[0])
        else:
            cuts.add(ties[int(rng.integers(len(ties)))])
    return frozenset(cuts)


def reference_without_columns(m: SparseBinMatrix, removed) -> tuple[SparseBinMatrix, np.ndarray]:
    """``SparseBinMatrix.without_columns`` as it was: the removed columns
    as a Python set, the kept ones renumbered through a dict."""
    removed = set(removed)
    kept = np.array([j for j in range(m.cols) if j not in removed], dtype=np.intp)
    remap = {int(j): pos for pos, j in enumerate(kept)}
    sups = [tuple(remap[j] for j in sup if j not in removed) for sup in m.row_supports]
    return SparseBinMatrix(m.rows, len(kept), sups), kept


def reference_solve(
    m: SparseBinMatrix, s: BitVec, pivot_order: Sequence[int]
) -> Optional[BitVec]:
    """Solve x * M^T = s by row elimination with greedy column pivoting.

    Columns are tried as pivots in ``pivot_order``; among candidate rows the
    lowest index wins.  The returned solution is supported only on pivot
    columns.  Returns None when the system is inconsistent.  This was
    ``gf2.solve`` before its column-basis rewrite.
    """
    if s.length != m.rows:
        raise ValueError(f"syndrome length {s.length} != matrix rows {m.rows}")
    if sorted(pivot_order) != list(range(m.cols)):
        raise ValueError("pivot_order must be a permutation of column indices")
    eqs = list(m.row_bits)
    rhs = [(s.bits >> i) & 1 for i in range(m.rows)]
    used = [False] * m.rows
    pivot_rows: list[tuple[int, int]] = []  # (column, row)
    for col in pivot_order:
        mask = 1 << col
        pr = -1
        for r in range(m.rows):
            if not used[r] and eqs[r] & mask:
                pr = r
                break
        if pr < 0:
            continue
        used[pr] = True
        pivot_rows.append((col, pr))
        for r in range(m.rows):
            if r != pr and eqs[r] & mask:
                eqs[r] ^= eqs[pr]
                rhs[r] ^= rhs[pr]
    for r in range(m.rows):
        if not used[r] and rhs[r]:
            return None
    x = 0
    for col, r in pivot_rows:
        if rhs[r]:
            x |= 1 << col
    return BitVec(m.cols, x)


def reference_osd0_without_columns(
    h: SparseBinMatrix, s: BitVec, soft, cut
) -> Optional[BitVec]:
    """OSD-0 after degeneracy cutting as ``bp_dc_osd_decode`` once ran it:
    drop the cut columns, solve on the reduced matrix in the order of its
    soft values, then expand the solution to full width.  Returns None
    when the uncut columns cannot span ``s``."""
    reduced, kept = h.without_columns(cut)
    order = np.argsort(-np.asarray(soft, dtype=float)[kept], kind="stable")
    x = reference_solve(reduced, s, order.tolist())
    if x is None:
        return None
    return BitVec.from_support(h.cols, kept[list(x.support)].tolist())


def reference_first_bp(dec: BpDecoder, syndrome: BitVec, priors, max_iter: int):
    """The first BP run of every pipeline; its result is final if BP converged."""
    out = dec.decode(syndrome, np.asarray(priors, dtype=float), max_iter)
    status = DecodeStatus.CONVERGED_FIRST_BP if out.converged else DecodeStatus.FAILED
    return DecodeResult(out.hard, status, np.empty(0, np.intp), (out.iterations_used,)), out


def reference_run_dc(
    dec: BpDecoder,
    h_deg: SparseBinMatrix,
    syndrome: BitVec,
    priors,
    max_iter: int,
    cfg: DcConfig,
):
    """Shared BP+DC pipeline on ``dec``'s matrix and BP settings; also
    returns the second run's full-width soft."""
    h = dec.h
    if h.cols != h_deg.cols:
        raise ValueError("check and degeneracy matrices disagree on column count")
    priors = np.asarray(priors, dtype=float)
    first, out1 = reference_first_bp(dec, syndrome, priors, max_iter)
    if out1.converged:
        return first, None

    rng = _dc_rng(cfg.rng_seed)
    cuts = dc_cut_indices(h_deg, out1.soft, rng)
    base = priors if cfg.second_run_priors is SecondRunPriors.RESET_TO_PRIOR else out1.soft

    if cfg.masking_mode is MaskingMode.ZERO_PRIORS:
        p2 = base.copy()
        p2[list(cuts)] = 0.0
        out2 = dec.decode(syndrome, p2, max_iter)
        estimate, soft2 = out2.hard, out2.soft
    else:
        h2, kept = h.without_columns(cuts)
        out2 = BpDecoder(h2, dec.variant, dec.min_sum_scale).decode(syndrome, base[kept], max_iter)
        estimate = BitVec.from_support(h.cols, kept[list(out2.hard.support)].tolist())
        soft2 = np.zeros(h.cols)
        soft2[kept] = out2.soft

    status = DecodeStatus.CONVERGED_AFTER_DC if out2.converged else DecodeStatus.FAILED
    result = DecodeResult(
        estimate, status, cuts, (out1.iterations_used, out2.iterations_used)
    )
    return result, soft2


def reference_bp_dc_decode(
    h, h_deg, syndrome, priors, max_iter, cfg,
    variant=PRODUCT_SUM, min_sum_scale=0.625, decoder=None,
) -> DecodeResult:
    """BP, then a single degeneracy cut and one BP rerun if BP failed."""
    dec = decoder if decoder is not None else BpDecoder(h, variant, min_sum_scale)
    result, _ = reference_run_dc(dec, h_deg, syndrome, priors, max_iter, cfg)
    return result


def reference_bp_osd_decode(
    h, syndrome, priors, max_iter,
    variant=PRODUCT_SUM, min_sum_scale=0.625, decoder=None,
) -> DecodeResult:
    """BP with OSD-0 fallback on the first run's soft output."""
    dec = decoder if decoder is not None else BpDecoder(h, variant, min_sum_scale)
    first, out = reference_first_bp(dec, syndrome, priors, max_iter)
    if out.converged:
        return first
    estimate = osd0_decode(h, syndrome, out.soft)
    return DecodeResult(
        estimate, DecodeStatus.CONVERGED_AFTER_OSD, np.empty(0, np.intp), (out.iterations_used,)
    )


def reference_bp_dc_osd_decode(
    h, h_deg, syndrome, priors, max_iter, cfg,
    variant=PRODUCT_SUM, min_sum_scale=0.625, decoder=None,
) -> DecodeResult:
    """BP+DC, then OSD-0 on H's uncut columns if the second BP fails."""
    dec = decoder if decoder is not None else BpDecoder(h, variant, min_sum_scale)
    result, soft2 = reference_run_dc(dec, h_deg, syndrome, priors, max_iter, cfg)
    if result.status is not DecodeStatus.FAILED:
        return result
    try:
        estimate = osd0_decode(h, syndrome, soft2, result.cut_indices)
    except InconsistentSystemError:
        return result  # cuts removed every solution; an honest failure
    return DecodeResult(
        estimate, DecodeStatus.CONVERGED_AFTER_OSD, result.cut_indices,
        result.bp_iterations,
    )


def reduce_logical_weight(v: BitVec, stabilizers: SparseBinMatrix) -> BitVec:
    """Greedy weight reduction: add stabilizer rows while weight decreases.

    Representatives are not weight-minimized; this is only a sanity helper
    for 'weight >= d' checks on logical rows.
    """
    best = v.bits
    improved = True
    while improved:
        improved = False
        for row in stabilizers.row_bits:
            cand = best ^ row
            if cand.bit_count() < best.bit_count():
                best = cand
                improved = True
    return BitVec(v.length, best)
