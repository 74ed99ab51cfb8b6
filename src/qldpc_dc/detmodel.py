"""Detector error models for code-capacity, phenomenological and circuit noise.

A detector model bundles a detector check matrix (detectors x mechanisms),
a logical observable matrix, independent per-mechanism priors, and
optionally a degeneracy matrix whose rows are low-weight trivial errors
(zero detector and zero observable flips).  The circuit-level model is the
explicit block-matrix construction for bicycle codes under the eight-step
syndrome-extraction schedule (Bravyi et al., arXiv:2308.07915).  The
tests hold a second, independently built form of it, a Pauli-frame fault
enumerator over the same schedule (``tests/circuit_oracle.py``), and
compare the two column by column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .codes import BbParams, CssCode, bb_block_permutations, bb_params, build_bb
from .gf2 import BitVec, SparseBinMatrix, mat_mat_t

PRIOR_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class DetectorModel:
    check_matrix: SparseBinMatrix  # detectors x mechanisms
    observables: SparseBinMatrix  # logicals x mechanisms
    priors: np.ndarray
    degeneracy_matrix: Optional[SparseBinMatrix] = None
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.observables.cols != self.check_matrix.cols:
            raise ValueError("observable and check matrices disagree on mechanisms")
        if self.priors.shape != (self.check_matrix.cols,):
            raise ValueError("priors length does not match mechanism count")
        if self.priors.size and (self.priors.min() <= 0.0 or self.priors.max() >= 1.0):
            raise ValueError("priors must lie strictly inside (0, 1)")
        if self.degeneracy_matrix is not None:
            if mat_mat_t(self.degeneracy_matrix, self.check_matrix).nnz != 0:
                raise ValueError("H_DDM * H_DCM^T != 0")
            if mat_mat_t(self.degeneracy_matrix, self.observables).nnz != 0:
                raise ValueError("H_DDM * O^T != 0")


def combine_odd_parity(ps: Sequence[float]) -> float:
    """Probability that an odd number of independent events occur."""
    prod = 1.0
    for p in ps:
        if not 0.0 <= p <= 0.5:
            raise ValueError("constituent probabilities must lie in [0, 0.5]")
        prod *= 1.0 - 2.0 * p
    return 0.5 * (1.0 - prod)


def code_capacity_model(code: CssCode, p: float) -> DetectorModel:
    """Bit-flip-only data noise: H_Z as checks, O_Z as observables, H_X as degeneracies."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return DetectorModel(
        check_matrix=code.hz,
        observables=code.oz,
        priors=np.full(code.n, p),
        degeneracy_matrix=code.hx,
        metadata={"noise": "code-capacity", "code": code.label, "T": 0, "p": p},
    )


# ---------------------------------------------------------------------------
# phenomenological model
# ---------------------------------------------------------------------------


def _pheno_columns(n: int, m_z: int):
    """Column offsets: per round [data(n) | meas(m_z)], then final data(n)."""

    def data(t: int, j: int) -> int:
        return t * (n + m_z) + j

    def meas(t: int, i: int) -> int:
        return t * (n + m_z) + n + i

    return data, meas


def build_pheno_dcm(code: CssCode, t_rounds: int, p: float) -> DetectorModel:
    """Detector check matrix for noisy measurements plus data bit flips.

    Per round, a data error flips only that round's detectors while a
    measurement error flips the detectors of this round and the next; a
    final noiseless readout closes the last window.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    n, m_z = code.n, code.hz.rows
    n_cols = t_rounds * (n + m_z) + n
    n_dets = m_z * (t_rounds + 1)
    data, meas = _pheno_columns(n, m_z)

    entries = []
    obs_entries = []
    for t in range(t_rounds + 1):
        for j in range(n):
            col = data(t, j)
            for i in code.hz.col(j):
                entries.append((t * m_z + i, col))
            for li in code.oz.col(j):
                obs_entries.append((li, col))
    for t in range(t_rounds):
        for i in range(m_z):
            entries.append((t * m_z + i, meas(t, i)))
            entries.append(((t + 1) * m_z + i, meas(t, i)))

    return DetectorModel(
        check_matrix=SparseBinMatrix.from_entries(n_dets, n_cols, entries),
        observables=SparseBinMatrix.from_entries(code.k, n_cols, obs_entries),
        priors=np.full(n_cols, p),
        metadata={"noise": "phenomenological", "code": code.label,
                  "T": t_rounds, "p": p},
    )


def build_pheno_ddm(code: CssCode, t_rounds: int) -> SparseBinMatrix:
    """Degeneracy rows for the phenomenological model.

    Per round: the X stabilizers acting on that round's data columns, and
    one row per data qubit tying a data error at round t, the measurement
    errors of its checks, and the same data error at round t+1 (which is
    indistinguishable from those measurement flips).  A final X-stabilizer
    block covers the last data columns.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    n, m_z, m_x = code.n, code.hz.rows, code.hx.rows
    n_cols = t_rounds * (n + m_z) + n
    data, meas = _pheno_columns(n, m_z)

    rows: list[list[int]] = []
    for t in range(t_rounds):
        for sup in code.hx.row_supports:
            rows.append([data(t, j) for j in sup])
        for j in range(n):
            row = [data(t, j), data(t + 1, j)]
            row.extend(meas(t, i) for i in code.hz.col(j))
            rows.append(row)
    for sup in code.hx.row_supports:
        rows.append([data(t_rounds, j) for j in sup])
    return SparseBinMatrix(len(rows), n_cols, [sorted(r) for r in rows])


def build_pheno_model(code: CssCode, t_rounds: int, p: float) -> DetectorModel:
    model = build_pheno_dcm(code, t_rounds, p)
    return replace(model, degeneracy_matrix=build_pheno_ddm(code, t_rounds))


# ---------------------------------------------------------------------------
# explicit circuit-level matrices for bicycle codes
# ---------------------------------------------------------------------------

# The circuit layout lives in the two tables below and nowhere else.  A
# permutation word such as "a2 b1" maps i to a2[b1[i]]; "" is the identity.
#
# _BB_DCM: a round's column blocks in printed left-to-right order.  Per
# block: the detectors column i flips as (round offset, word), the data
# qubits whose logical flips it carries as (half, word), and the counts of
# constituent faults of rates (p, p/3, p/15) in a middle, the first and the
# last round (None: the last round has only the first two blocks).  Classifying
# every schedule location's Pauli classes into the block families gives the
# counts; boundary rounds lose the faults of their missing neighbour round.
_BB_DCM = {
    # data errors present since the previous round: full syndrome now
    "prev_L": ([(0, "b1"), (0, "b2"), (0, "b3")], [("L", "")],
               ((0, 4, 36), (0, 4, 16), (0, 2, 20))),
    "prev_R": ([(0, "a1"), (0, "a2"), (0, "a3")], [("R", "")],
               ((0, 4, 8), (0, 2, 4), (0, 4, 4))),
    "meas": ([(0, ""), (1, "")], [], ((2, 0, 24), (2, 0, 24), None)),
    # data errors appearing after their first extraction CNOTs
    "mid_L3": ([(0, "b2"), (0, "b3"), (1, "b1")], [("L", "")], ((0, 0, 8), (0, 0, 8), None)),
    "mid_R1": ([(0, "a2"), (0, "a3"), (1, "a1")], [("R", "")], ((0, 0, 8), (0, 0, 8), None)),
    "mid_L4": ([(0, "b3"), (1, "b1"), (1, "b2")], [("L", "")], ((0, 0, 8), (0, 0, 8), None)),
    "mid_R2": ([(0, "a2"), (1, "a1"), (1, "a3")], [("R", "")],
               ((0, 0, 20), (0, 0, 20), None)),
    # X-ancilla errors after steps 3/4/5 dump X onto the remaining CNOT
    # targets; later syndrome rounds see the net package
    "hook3": ([(0, "a2 b1"), (0, "a2 b3"), (1, "a1 b2"), (1, "a3 b2")],
              [("R", "b1"), ("R", "b3"), ("L", "a1"), ("L", "a3")],
              ((0, 0, 8), (0, 0, 8), None)),
    "hook4": ([(0, "a2 b3"), (1, "a1 b1"), (1, "a1 b2"), (1, "a3 b1"), (1, "a3 b2")],
              [("R", "b3"), ("L", "a1"), ("L", "a3")], ((0, 0, 8), (0, 0, 8), None)),
    "hook5": ([(1, "a1 b1"), (1, "a1 b2"), (1, "a1 b3"),
               (1, "a3 b1"), (1, "a3 b2"), (1, "a3 b3")],
              [("L", "a1"), ("L", "a3")], ((0, 0, 8), (0, 0, 8), None)),
}

# DDM row families: row i of a family holds the columns (round offset,
# block, word(i)).  The per-round families are listed in row order.
_BB_X_STABILIZERS = [(0, "prev_L", "a1"), (0, "prev_L", "a2"), (0, "prev_L", "a3"),
                     (0, "prev_R", "b1"), (0, "prev_R", "b2"), (0, "prev_R", "b3")]
_BB_DDM = [
    _BB_X_STABILIZERS,  # X stabilizers before round t
    # measurement flips against the data-error families they mimic
    [(0, "prev_L", ""), (0, "meas", "b1"), (0, "mid_L3", "")],
    [(0, "prev_R", ""), (0, "meas", "a1"), (0, "mid_R1", "")],
    [(0, "meas", "b2"), (0, "mid_L3", ""), (0, "mid_L4", "")],
    [(0, "meas", "a3"), (0, "mid_R1", ""), (0, "mid_R2", "")],
    [(0, "meas", "b3"), (0, "mid_L4", ""), (1, "prev_L", "")],
    [(0, "meas", "a2"), (0, "mid_R2", ""), (1, "prev_R", "")],
    # hook families against each other and plain data errors
    [(0, "prev_L", "a2"), (0, "mid_R2", "b2"), (0, "hook3", "")],
    [(0, "mid_R2", "b1"), (0, "hook3", ""), (0, "hook4", "")],
    [(0, "mid_R2", "b3"), (0, "hook4", ""), (0, "hook5", "")],
    [(0, "hook5", ""), (1, "prev_L", "a1"), (1, "prev_L", "a3")],
]
# specific to the (9, 6) code: hook5 columns at i, (A1^2 A3)(i) and
# (A1 A3^2)(i) cancel
_BB_DDM_EXTRA = [(0, "hook5", "a3 a1 a1"), (0, "hook5", "a3 a3 a1"), (0, "hook5", "")]


def _bb_columns(s: int):
    """Column offset lookup for the explicit circuit-level layout."""
    block_pos = {name: idx for idx, name in enumerate(_BB_DCM)}

    def col(t: int, block: str, i: int) -> int:
        return 10 * s * t + block_pos[block] * s + i

    return col


def _bb_words(params: BbParams):
    """Permutation lookup for the words of the layout tables."""
    a_perms, b_perms = bb_block_permutations(params)
    named = dict(zip(("a1", "a2", "a3", "b1", "b2", "b3"), a_perms + b_perms))

    def word(w: str) -> Sequence[int]:
        perm: Sequence[int] = range(params.l * params.m)
        for name in reversed(w.split()):
            perm = [named[name][i] for i in perm]
        return perm

    return functools.cache(word)


def build_bb_circuit_dcm(params: BbParams, t_rounds: int, rate: float) -> DetectorModel:
    """Explicit circuit-level detector check matrix for a bicycle code.

    Ten column blocks per round (``_BB_DCM``): data errors surviving from
    the previous round (L then R halves), measurement flips, four
    partially-extracted mid-round data error families, and three families
    of errors that propagate from X ancillas onto several data qubits; a
    final H_Z block covers data errors preceding the noiseless readout.
    Each block's prior is the odd-parity combination of the constituent
    rates its ``_BB_DCM`` fault counts give for the round.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    code = build_bb(params)
    s = params.l * params.m
    word = _bb_words(params)
    col = _bb_columns(s)
    n_cols = 10 * s * t_rounds + 2 * s
    n_dets = s * (t_rounds + 1)

    entries: list[tuple[int, int]] = []
    obs_entries: list[tuple[int, int]] = []  # repeats cancel mod 2
    priors = np.empty(n_cols)
    for t in range(t_rounds + 1):
        phase = 1 if t == 0 else 2 if t == t_rounds else 0
        for block, (dets, data, faults) in _BB_DCM.items():
            if faults[phase] is None:
                continue
            c0 = col(t, block, 0)
            cols = range(c0, c0 + s)
            for dt, w in dets:
                entries.extend(zip([(t + dt) * s + d for d in word(w)], cols))
            for half, w in data:
                offset = 0 if half == "L" else s
                for c, j in zip(cols, word(w)):
                    obs_entries.extend((li, c) for li in code.oz.col(offset + j))
            n_p, n_3, n_15 = faults[phase]
            priors[c0:c0 + s] = combine_odd_parity([rate] * n_p + [rate / 3.0] * n_3
                                                   + [rate / 15.0] * n_15)

    return DetectorModel(
        check_matrix=SparseBinMatrix.from_entries(n_dets, n_cols, entries),
        observables=SparseBinMatrix.from_entries(code.k, n_cols, obs_entries),
        priors=np.maximum(priors, PRIOR_FLOOR),
        metadata={"noise": "circuit-bb", "code": code.label, "T": t_rounds, "p": rate},
    )


def build_bb_circuit_ddm(
    params: BbParams, t_rounds: int, include_extra: Optional[bool] = None
) -> SparseBinMatrix:
    """Explicit circuit-level degeneracy matrix for a bicycle code.

    Eleven row blocks per round (``_BB_DDM``): the X stabilizers on the
    previous-round data columns, six rows tying measurement flips to the
    data-error families they mimic, and four rows relating the X-ancilla
    hook families to each other and to plain data errors.  A final H_X
    block covers the readout data columns.  For the (l, m) = (9, 6) code an
    extra row block is appended so that every weight-3 trivial error is
    covered.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    s = params.l * params.m
    word = _bb_words(params)
    col = _bb_columns(s)
    n_cols = 10 * s * t_rounds + 2 * s
    if include_extra is None:
        include_extra = params == bb_params(9, 6)
    per_round = _BB_DDM + [_BB_DDM_EXTRA] if include_extra else _BB_DDM

    rows: list[tuple[int, ...]] = []
    for t in range(t_rounds + 1):
        for family in per_round if t < t_rounds else [_BB_X_STABILIZERS]:
            cols = [[col(t + dt, block, 0) + j for j in word(w)] for dt, block, w in family]
            rows.extend(zip(*cols))
    return SparseBinMatrix(len(rows), n_cols, rows)


def build_bb_circuit_model(params: BbParams, t_rounds: int, rate: float) -> DetectorModel:
    """Explicit circuit-level DCM plus its degeneracy matrix."""
    model = build_bb_circuit_dcm(params, t_rounds, rate)
    return replace(model, degeneracy_matrix=build_bb_circuit_ddm(params, t_rounds))


# ---------------------------------------------------------------------------
# low-weight trivial error search
# ---------------------------------------------------------------------------


def find_low_weight_trivial(
    h: SparseBinMatrix, obs: SparseBinMatrix, w_max: int
) -> list[BitVec]:
    """All nonzero e with weight <= w_max, e H^T = 0 and e O^T = 0.

    Weight 1 is a zero-column scan, weight 2 finds duplicate columns by
    hashing, weight 3 hashes every column-pair sum against single columns.
    """
    if h.cols != obs.cols:
        raise ValueError("check and observable matrices disagree on columns")
    if not 1 <= w_max <= 3:
        raise ValueError("w_max must be 1, 2, or 3")
    n = h.cols
    # per-column signature: its detector bits, then its observable bits
    keys = [hc | oc << h.rows for hc, oc in zip(h.col_bits, obs.col_bits)]

    found: set[frozenset[int]] = set()
    for j, key in enumerate(keys):
        if key == 0:
            found.add(frozenset((j,)))
    if w_max >= 2:
        by_key: dict[int, list[int]] = {}
        for j, key in enumerate(keys):
            by_key.setdefault(key, []).append(j)
        for cols in by_key.values():
            for a in range(len(cols)):
                for b in range(a + 1, len(cols)):
                    found.add(frozenset((cols[a], cols[b])))
    if w_max >= 3:
        for i in range(n):
            ki = keys[i]
            for j in range(i + 1, n):
                target = ki ^ keys[j]
                for l in by_key.get(target, ()):
                    if l > j:
                        found.add(frozenset((i, j, l)))
    return sorted(
        (BitVec.from_support(n, sorted(sup)) for sup in found),
        key=lambda v: (v.weight(), v.support),
    )
