"""Shared test oracles: random acyclic instances, exhaustive posteriors,
the row-elimination OSD-0 solver that ``gf2.solve`` replaced, OSD-0 after
degeneracy cutting on the cut-reduced matrix, greedy logical-weight
reduction, and the Hypothesis strategy for small sparse matrices."""

from typing import Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from qldpc_dc.gf2 import BitVec, SparseBinMatrix


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
