"""Detector error models for code-capacity, phenomenological and circuit noise.

A detector model bundles a detector check matrix (detectors x mechanisms),
a logical observable matrix, independent per-mechanism priors, and
optionally a degeneracy matrix whose rows are low-weight trivial errors
(zero detector and zero observable flips).  Circuit-level models come in
two independently built forms: a generic Clifford fault enumerator that
propagates X-type Pauli frames through the syndrome-extraction schedule,
and explicit block-matrix constructions for bicycle codes.  Tests compare
the two routes column by column.

Pauli-frame rules used by the enumerator (X components only, since
Z-basis detectors are blind to Z frames):

    CNOT(c, t):  X on c spreads to t; X on t stays put.
    InitZ/InitX: any prior frame on the prepared qubit is erased.
    MeasZ:       an X frame flips the recorded outcome and survives.
    MeasX:       outcome is discarded; the frame survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .codes import (
    BbParams, CssCode, _invert, bb_block_permutations, build_bb, build_rotated_surface,
)
from .gf2 import BitVec, SparseBinMatrix

PRIOR_FLOOR = 1e-12

# circuit operations: ("I", q) | ("IZ", q) | ("IX", q) | ("CX", c, t)
#                     | ("MZ", q, meas_index) | ("MX", q, meas_index)
Op = tuple


@dataclass(frozen=True)
class Observable:
    """A logical readout: measurement records plus final-frame data qubits."""

    meas: tuple[int, ...] = ()
    frame: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class CliffordCircuit:
    n_qubits: int
    steps: tuple[tuple[Op, ...], ...]
    noisy_steps: int  # steps[:noisy_steps] carry fault locations
    detectors: tuple[tuple[int, ...], ...]  # singleton or pair of meas indices
    observables: tuple[Observable, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def measurement_count(self) -> int:
        return sum(1 for step in self.steps for op in step if op[0] in ("MZ", "MX"))

    def validate(self) -> None:
        n_meas = 0
        for step in self.steps:
            seen = set()
            for op in step:
                qubits = op[1:3] if op[0] == "CX" else op[1:2]
                for q in qubits:
                    if not 0 <= q < self.n_qubits:
                        raise ValueError(f"qubit {q} out of range")
                    if q in seen:
                        raise ValueError(f"qubit {q} used twice in one timestep")
                    seen.add(q)
                if op[0] in ("MZ", "MX"):
                    if op[2] != n_meas:
                        raise ValueError("measurement indices must follow circuit order")
                    n_meas += 1
        for det in self.detectors:
            if len(det) not in (1, 2):
                raise ValueError("detectors must reference one or two measurements")
            for k in det:
                if not 0 <= k < n_meas:
                    raise ValueError(f"detector references missing measurement {k}")
        for obs in self.observables:
            for k in obs.meas:
                if not 0 <= k < n_meas:
                    raise ValueError(f"observable references missing measurement {k}")


@dataclass(frozen=True, eq=False)
class ErrorMechanism:
    detector_flips: BitVec
    observable_flips: BitVec
    probability: float
    constituents: int


@dataclass(frozen=True, eq=False)
class DetectorModel:
    check_matrix: SparseBinMatrix  # detectors x mechanisms
    observables: SparseBinMatrix  # logicals x mechanisms
    priors: np.ndarray
    degeneracy_matrix: Optional[SparseBinMatrix] = None
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        from .gf2 import mat_mat_t

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

    def with_degeneracy(self, ddm: SparseBinMatrix) -> "DetectorModel":
        return replace(self, degeneracy_matrix=ddm)


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


def _pheno_columns(n: int, m_z: int, t_rounds: int):
    """Column offsets: per round [data(n) | meas(m_z)], then final data(n)."""

    def data(t: int, j: int) -> int:
        if t == t_rounds:
            return t_rounds * (n + m_z) + j
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
    data, meas = _pheno_columns(n, m_z, t_rounds)

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
    data, meas = _pheno_columns(n, m_z, t_rounds)

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
    return model.with_degeneracy(build_pheno_ddm(code, t_rounds))


# ---------------------------------------------------------------------------
# bicycle-code syndrome extraction circuit
# ---------------------------------------------------------------------------


def build_bb_circuit(params: BbParams, t_rounds: int) -> CliffordCircuit:
    """The eight-step bicycle-code schedule, plus a noiseless readout round.

    Data qubits are split into halves L (indices 0..s-1) and R (s..2s-1)
    matching H_X = [A|B]; X ancillas live at 2s.. and Z ancillas at 3s...
    Every noisy round runs steps 1-8; step 0 initializes the Z ancillas
    once at the start.  The final round repeats steps 1-8 without noise
    (fresh noiseless ancilla preparation included), so detectors are
    plain pairs of consecutive Z-measurement outcomes.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    code = build_bb(params)
    s = params.l * params.m
    a_perms, b_perms = bb_block_permutations(params)
    a_inv = [_invert(p) for p in a_perms]
    b_inv = [_invert(p) for p in b_perms]
    a1, a2, a3 = a_perms
    b1, b2, b3 = b_perms
    a1i, a2i, a3i = a_inv
    b1i, b2i, b3i = b_inv

    def L(i):
        return i

    def R(i):
        return s + i

    def X(i):
        return 2 * s + i

    def Z(i):
        return 3 * s + i

    meas_counter = [0]

    def mz(q):
        k = meas_counter[0]
        meas_counter[0] += 1
        return ("MZ", q, k)

    def mx(q):
        k = meas_counter[0]
        meas_counter[0] += 1
        return ("MX", q, k)

    def round_steps() -> list[list[Op]]:
        rs = []
        rs.append(
            [("IX", X(i)) for i in range(s)]
            + [("CX", R(a1i[i]), Z(i)) for i in range(s)]
            + [("I", L(i)) for i in range(s)]
        )
        rs.append(
            [("CX", X(i), L(a2[i])) for i in range(s)]
            + [("CX", R(a3i[i]), Z(i)) for i in range(s)]
        )
        rs.append(
            [("CX", X(i), R(b2[i])) for i in range(s)]
            + [("CX", L(b1i[i]), Z(i)) for i in range(s)]
        )
        rs.append(
            [("CX", X(i), R(b1[i])) for i in range(s)]
            + [("CX", L(b2i[i]), Z(i)) for i in range(s)]
        )
        rs.append(
            [("CX", X(i), R(b3[i])) for i in range(s)]
            + [("CX", L(b3i[i]), Z(i)) for i in range(s)]
        )
        rs.append(
            [("CX", X(i), L(a1[i])) for i in range(s)]
            + [("CX", R(a2i[i]), Z(i)) for i in range(s)]
        )
        rs.append(
            [("CX", X(i), L(a3[i])) for i in range(s)]
            + [mz(Z(i)) for i in range(s)]
            + [("I", R(i)) for i in range(s)]
        )
        rs.append(
            [mx(X(i)) for i in range(s)]
            + [("IZ", Z(i)) for i in range(s)]
            + [("I", L(i)) for i in range(s)]
            + [("I", R(i)) for i in range(s)]
        )
        return rs

    steps: list[list[Op]] = []
    steps.append(
        [("I", X(i)) for i in range(s)]
        + [("IZ", Z(i)) for i in range(s)]
        + [("I", L(i)) for i in range(s)]
        + [("I", R(i)) for i in range(s)]
    )
    for _ in range(t_rounds):
        steps.extend(round_steps())
    noisy_steps = len(steps)
    # noiseless readout round; re-preparing the ancillas keeps the round
    # independent of any earlier ancilla faults
    steps.append([("IZ", Z(i)) for i in range(s)] + [("IX", X(i)) for i in range(s)])
    steps.extend(round_steps())

    # Z-measurement record index of check i in round r: rounds emit s MZ then
    # s MX records, after which the readout round emits its own s MZ records.
    def mz_index(i: int, r: int) -> int:
        return 2 * s * r + i

    detectors: list[tuple[int, ...]] = []
    for r in range(t_rounds + 1):
        for i in range(s):
            if r == 0:
                detectors.append((mz_index(i, 0),))
            else:
                detectors.append((mz_index(i, r - 1), mz_index(i, r)))

    observables = []
    for sup in code.oz.row_supports:
        observables.append(Observable(frame=tuple(L(j) if j < s else R(j - s) for j in sup)))

    circuit = CliffordCircuit(
        n_qubits=4 * s,
        steps=tuple(tuple(st) for st in steps),
        noisy_steps=noisy_steps,
        detectors=tuple(detectors),
        observables=tuple(observables),
        metadata={"code": code.label, "T": t_rounds, "schedule": "bb-8-step"},
    )
    circuit.validate()
    return circuit


# ---------------------------------------------------------------------------
# fault enumeration by backward response propagation
# ---------------------------------------------------------------------------


def _detector_masks(circuit: CliffordCircuit) -> tuple[list[int], list[int], int]:
    """Per-measurement and per-qubit-final-frame signature masks.

    Signature bit d (d < M) is detector d; bit M + j is observable j.
    """
    m_dets = len(circuit.detectors)
    n_meas = circuit.measurement_count
    det_mask = [0] * n_meas
    for d, meas_indices in enumerate(circuit.detectors):
        for k in meas_indices:
            det_mask[k] |= 1 << d
    frame_mask = [0] * circuit.n_qubits
    for j, obs in enumerate(circuit.observables):
        for k in obs.meas:
            det_mask[k] |= 1 << (m_dets + j)
        for q in obs.frame:
            frame_mask[q] |= 1 << (m_dets + j)
    return det_mask, frame_mask, m_dets


def _responses(circuit: CliffordCircuit) -> tuple[list[list[int]], list[int], list[int]]:
    """Backward pass: signature of an X frame present after each timestep.

    Returns (after[t][q], before_circuit[q], det_mask).
    """
    det_mask, frame_mask, _ = _detector_masks(circuit)
    r = list(frame_mask)
    after: list[list[int]] = [None] * len(circuit.steps)  # type: ignore[list-item]
    for t in range(len(circuit.steps) - 1, -1, -1):
        after[t] = list(r)
        for op in circuit.steps[t]:
            kind = op[0]
            if kind == "CX":
                c, tq = op[1], op[2]
                r[c] = r[c] ^ r[tq]
            elif kind in ("IZ", "IX"):
                r[op[1]] = 0
            elif kind == "MZ":
                r[op[1]] = r[op[1]] ^ det_mask[op[2]]
            # MX records are discarded; Idle does nothing
    return after, r, det_mask


def fault_signatures(circuit: CliffordCircuit, p: float):
    """All noisy-location fault classes as (signature, probability) pairs.

    Each CNOT Pauli class carries four constituent faults of rate p/15
    (entered individually so odd-parity grouping matches independent
    constituents); idles contribute X and Y at p/3; preparations and
    measurements flip with probability p.
    """
    after, _, det_mask = _responses(circuit)
    out: list[tuple[int, float]] = []
    for t in range(circuit.noisy_steps):
        resp = after[t]
        for op in circuit.steps[t]:
            kind = op[0]
            if kind == "I":
                sig = resp[op[1]]
                out.extend(((sig, p / 3.0), (sig, p / 3.0), (0, p / 3.0)))
            elif kind == "IZ":
                out.append((resp[op[1]], p))
            elif kind == "IX":
                out.append((0, p))
            elif kind == "CX":
                rc, rt = resp[op[1]], resp[op[2]]
                for sig in (rc, rt, rc ^ rt):
                    out.extend(((sig, p / 15.0),) * 4)
                out.extend(((0, p / 15.0),) * 3)
            elif kind == "MZ":
                out.append((det_mask[op[2]], p))
            elif kind == "MX":
                out.append((0, p))
    return out


def fault_mechanisms(circuit: CliffordCircuit, p: float) -> tuple[list[ErrorMechanism], dict]:
    """Group fault classes by signature into independent error mechanisms."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    m_dets = len(circuit.detectors)
    n_obs = len(circuit.observables)
    grouped: dict[int, list[float]] = {}
    dropped = 0
    dropped_prob = 0.0
    for sig, prob in fault_signatures(circuit, p):
        if sig == 0:
            dropped += 1
            dropped_prob += prob
            continue
        grouped.setdefault(sig, []).append(prob)
    mechanisms = []
    for sig in sorted(grouped):
        probs = grouped[sig]
        det_bits = sig & ((1 << m_dets) - 1)
        obs_bits = sig >> m_dets
        mechanisms.append(
            ErrorMechanism(
                detector_flips=BitVec(m_dets, det_bits),
                observable_flips=BitVec(n_obs, obs_bits),
                probability=max(combine_odd_parity(probs), PRIOR_FLOOR),
                constituents=len(probs),
            )
        )
    stats = {"dropped_zero_signature": dropped, "dropped_probability_mass": dropped_prob}
    return mechanisms, stats


def enumerate_fault_mechanisms(circuit: CliffordCircuit, p: float) -> DetectorModel:
    """DetectorModel whose columns are the enumerated mechanism signatures."""
    mechanisms, stats = fault_mechanisms(circuit, p)
    m_dets = len(circuit.detectors)
    n_obs = len(circuit.observables)
    entries = []
    obs_entries = []
    priors = np.empty(len(mechanisms))
    for col, mech in enumerate(mechanisms):
        for d in mech.detector_flips.support:
            entries.append((d, col))
        for j in mech.observable_flips.support:
            obs_entries.append((j, col))
        priors[col] = mech.probability
    meta = dict(circuit.metadata)
    meta.update(stats)
    meta.setdefault("noise", "circuit-enumerated")
    meta["p"] = p
    return DetectorModel(
        check_matrix=SparseBinMatrix.from_entries(m_dets, len(mechanisms), entries),
        observables=SparseBinMatrix.from_entries(n_obs, len(mechanisms), obs_entries),
        priors=priors,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# explicit circuit-level matrices for bicycle codes
# ---------------------------------------------------------------------------

# column blocks per round, in printed left-to-right order
_BB_BLOCKS = ("prev_L", "prev_R", "meas", "mid_L3", "mid_R1", "mid_L4", "mid_R2",
              "hook3", "hook4", "hook5")


def _bb_columns(s: int, t_rounds: int):
    """Column offset lookup for the explicit circuit-level layout."""
    block_pos = {name: idx for idx, name in enumerate(_BB_BLOCKS)}

    def col(t: int, block: str, i: int) -> int:
        if t == t_rounds:
            if block == "prev_L":
                return 10 * s * t_rounds + i
            if block == "prev_R":
                return 10 * s * t_rounds + s + i
            raise ValueError(f"final round has only data blocks, not {block}")
        return 10 * s * t + block_pos[block] * s + i

    return col


def _bb_family_probs(block: str, t: int, t_rounds: int, p: float) -> list[float]:
    """Constituent fault rates feeding one explicit column family.

    Derived by classifying every schedule location's Pauli classes into the
    signature families of the block layout; boundary rounds lose the
    contributions from the missing neighbor round.
    """
    third, fifteenth = p / 3.0, p / 15.0
    if block == "meas":
        return [p] * 2 + [fifteenth] * 24
    if block == "prev_L":
        if t == 0:
            return [third] * 4 + [fifteenth] * 16
        if t == t_rounds:
            return [third] * 2 + [fifteenth] * 20
        return [third] * 4 + [fifteenth] * 36
    if block == "prev_R":
        if t == 0:
            return [third] * 2 + [fifteenth] * 4
        if t == t_rounds:
            return [third] * 4 + [fifteenth] * 4
        return [third] * 4 + [fifteenth] * 8
    if block == "mid_R2":
        return [fifteenth] * 20
    if block in ("mid_L3", "mid_R1", "mid_L4", "hook3", "hook4", "hook5"):
        return [fifteenth] * 8
    raise ValueError(block)


def build_bb_circuit_dcm(params: BbParams, t_rounds: int, rate: float) -> DetectorModel:
    """Explicit circuit-level detector check matrix for a bicycle code.

    Ten column blocks per round: data errors surviving from the previous
    round (L then R halves), measurement flips, four partially-extracted
    mid-round data error families, and three families of errors that
    propagate from X ancillas onto several data qubits; a final H_Z block
    covers data errors preceding the noiseless readout.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    code = build_bb(params)
    s = params.l * params.m
    a_perms, b_perms = bb_block_permutations(params)
    a1, a2, a3 = a_perms
    b1, b2, b3 = b_perms
    col = _bb_columns(s, t_rounds)
    n_cols = 10 * s * t_rounds + 2 * s
    n_dets = s * (t_rounds + 1)

    def det(t: int, i: int) -> int:
        return t * s + i

    entries: list[tuple[int, int]] = []
    obs_entries: list[tuple[int, int]] = []
    priors = np.empty(n_cols)

    def put_obs(c: int, data_cols: Iterable[int]) -> None:
        seen: set[int] = set()
        for j in data_cols:
            for li in code.oz.col(j):
                seen.symmetric_difference_update((li,))
        obs_entries.extend((li, c) for li in seen)

    for t in range(t_rounds):
        for i in range(s):
            # data errors present since the previous round: full syndrome now
            c = col(t, "prev_L", i)
            entries.extend((det(t, b[i]), c) for b in (b1, b2, b3))
            put_obs(c, (i,))
            priors[c] = combine_odd_parity(_bb_family_probs("prev_L", t, t_rounds, rate))

            c = col(t, "prev_R", i)
            entries.extend((det(t, a[i]), c) for a in (a1, a2, a3))
            put_obs(c, (s + i,))
            priors[c] = combine_odd_parity(_bb_family_probs("prev_R", t, t_rounds, rate))

            c = col(t, "meas", i)
            entries.extend(((det(t, i), c), (det(t + 1, i), c)))
            priors[c] = combine_odd_parity(_bb_family_probs("meas", t, t_rounds, rate))

            # L data error appearing after its first extraction CNOT
            c = col(t, "mid_L3", i)
            entries.extend(
                ((det(t, b2[i]), c), (det(t, b3[i]), c), (det(t + 1, b1[i]), c))
            )
            put_obs(c, (i,))
            priors[c] = combine_odd_parity(_bb_family_probs("mid_L3", t, t_rounds, rate))

            c = col(t, "mid_R1", i)
            entries.extend(
                ((det(t, a2[i]), c), (det(t, a3[i]), c), (det(t + 1, a1[i]), c))
            )
            put_obs(c, (s + i,))
            priors[c] = combine_odd_parity(_bb_family_probs("mid_R1", t, t_rounds, rate))

            c = col(t, "mid_L4", i)
            entries.extend(
                ((det(t, b3[i]), c), (det(t + 1, b1[i]), c), (det(t + 1, b2[i]), c))
            )
            put_obs(c, (i,))
            priors[c] = combine_odd_parity(_bb_family_probs("mid_L4", t, t_rounds, rate))

            c = col(t, "mid_R2", i)
            entries.extend(
                ((det(t, a2[i]), c), (det(t + 1, a1[i]), c), (det(t + 1, a3[i]), c))
            )
            put_obs(c, (s + i,))
            priors[c] = combine_odd_parity(_bb_family_probs("mid_R2", t, t_rounds, rate))

            # X-ancilla errors after steps 3/4/5 dump X onto the remaining
            # CNOT targets; later syndrome rounds see the net package
            c = col(t, "hook3", i)
            entries.extend(
                (
                    (det(t, a2[b1[i]]), c),
                    (det(t, a2[b3[i]]), c),
                    (det(t + 1, a1[b2[i]]), c),
                    (det(t + 1, a3[b2[i]]), c),
                )
            )
            put_obs(c, (s + b1[i], s + b3[i], a1[i], a3[i]))
            priors[c] = combine_odd_parity(_bb_family_probs("hook3", t, t_rounds, rate))

            c = col(t, "hook4", i)
            entries.extend(
                (
                    (det(t, a2[b3[i]]), c),
                    (det(t + 1, a1[b1[i]]), c),
                    (det(t + 1, a1[b2[i]]), c),
                    (det(t + 1, a3[b1[i]]), c),
                    (det(t + 1, a3[b2[i]]), c),
                )
            )
            put_obs(c, (s + b3[i], a1[i], a3[i]))
            priors[c] = combine_odd_parity(_bb_family_probs("hook4", t, t_rounds, rate))

            c = col(t, "hook5", i)
            entries.extend(
                (det(t + 1, a[b[i]]), c) for a in (a1, a3) for b in (b1, b2, b3)
            )
            put_obs(c, (a1[i], a3[i]))
            priors[c] = combine_odd_parity(_bb_family_probs("hook5", t, t_rounds, rate))

    for i in range(s):
        c = col(t_rounds, "prev_L", i)
        entries.extend((det(t_rounds, b[i]), c) for b in (b1, b2, b3))
        put_obs(c, (i,))
        priors[c] = combine_odd_parity(
            _bb_family_probs("prev_L", t_rounds, t_rounds, rate)
        )
        c = col(t_rounds, "prev_R", i)
        entries.extend((det(t_rounds, a[i]), c) for a in (a1, a2, a3))
        put_obs(c, (s + i,))
        priors[c] = combine_odd_parity(
            _bb_family_probs("prev_R", t_rounds, t_rounds, rate)
        )

    first_order = {
        block: math.fsum(_bb_family_probs(block, 1 if t_rounds > 1 else 0, t_rounds, rate))
        for block in _BB_BLOCKS
    }
    return DetectorModel(
        check_matrix=SparseBinMatrix.from_entries(n_dets, n_cols, entries),
        observables=SparseBinMatrix.from_entries(code.k, n_cols, obs_entries),
        priors=np.maximum(priors, PRIOR_FLOOR),
        metadata={
            "noise": "circuit-bb",
            "code": code.label,
            "T": t_rounds,
            "p": rate,
            "first_order_rates": first_order,
        },
    )


def _needs_extra_ddm_block(params: BbParams) -> bool:
    from .codes import bb_params

    return params == bb_params(9, 6)


def build_bb_circuit_ddm(
    params: BbParams, t_rounds: int, include_extra: Optional[bool] = None
) -> SparseBinMatrix:
    """Explicit circuit-level degeneracy matrix for a bicycle code.

    Eleven row blocks per round: the X stabilizers on the previous-round
    data columns, six rows tying measurement flips to the data-error
    families they mimic, and four rows relating the X-ancilla hook
    families to each other and to plain data errors.  A final H_X block
    covers the readout data columns.  For the (l, m) = (9, 6) code an
    extra row block is appended so that every weight-3 trivial error is
    covered.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    s = params.l * params.m
    a_perms, b_perms = bb_block_permutations(params)
    a1, a2, a3 = a_perms
    b1, b2, b3 = b_perms
    col = _bb_columns(s, t_rounds)
    n_cols = 10 * s * t_rounds + 2 * s
    if include_extra is None:
        include_extra = _needs_extra_ddm_block(params)

    rows: list[list[int]] = []
    for t in range(t_rounds):
        nxt = t + 1
        for i in range(s):  # X stabilizers before round t
            rows.append(
                [col(t, "prev_L", a[i]) for a in (a1, a2, a3)]
                + [col(t, "prev_R", b[i]) for b in (b1, b2, b3)]
            )
        for i in range(s):
            rows.append([col(t, "prev_L", i), col(t, "meas", b1[i]), col(t, "mid_L3", i)])
        for i in range(s):
            rows.append([col(t, "prev_R", i), col(t, "meas", a1[i]), col(t, "mid_R1", i)])
        for i in range(s):
            rows.append([col(t, "meas", b2[i]), col(t, "mid_L3", i), col(t, "mid_L4", i)])
        for i in range(s):
            rows.append([col(t, "meas", a3[i]), col(t, "mid_R1", i), col(t, "mid_R2", i)])
        for i in range(s):
            rows.append([col(t, "meas", b3[i]), col(t, "mid_L4", i), col(nxt, "prev_L", i)])
        for i in range(s):
            rows.append([col(t, "meas", a2[i]), col(t, "mid_R2", i), col(nxt, "prev_R", i)])
        for i in range(s):
            rows.append(
                [col(t, "prev_L", a2[i]), col(t, "mid_R2", b2[i]), col(t, "hook3", i)]
            )
        for i in range(s):
            rows.append([col(t, "mid_R2", b1[i]), col(t, "hook3", i), col(t, "hook4", i)])
        for i in range(s):
            rows.append([col(t, "mid_R2", b3[i]), col(t, "hook4", i), col(t, "hook5", i)])
        for i in range(s):
            rows.append(
                [col(t, "hook5", i), col(nxt, "prev_L", a1[i]), col(nxt, "prev_L", a3[i])]
            )
        if include_extra:
            # extra hook-family degeneracy specific to the (9, 6) code:
            # hook5 columns at i, (A1^2 A3)(i) and (A1 A3^2)(i) cancel
            for i in range(s):
                rows.append(
                    [
                        col(t, "hook5", a3[a1[a1[i]]]),
                        col(t, "hook5", a3[a3[a1[i]]]),
                        col(t, "hook5", i),
                    ]
                )
    for i in range(s):  # final X stabilizers
        rows.append(
            [col(t_rounds, "prev_L", a[i]) for a in (a1, a2, a3)]
            + [col(t_rounds, "prev_R", b[i]) for b in (b1, b2, b3)]
        )
    return SparseBinMatrix(len(rows), n_cols, [sorted(r) for r in rows])


def build_bb_circuit_model(params: BbParams, t_rounds: int, rate: float) -> DetectorModel:
    """Explicit circuit-level DCM plus its degeneracy matrix."""
    model = build_bb_circuit_dcm(params, t_rounds, rate)
    return model.with_degeneracy(build_bb_circuit_ddm(params, t_rounds))


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


# ---------------------------------------------------------------------------
# rotated-surface-code syndrome extraction circuit
# ---------------------------------------------------------------------------


def build_surface_circuit(d: int, t_rounds: int) -> CliffordCircuit:
    """Standard four-step CNOT schedule for the rotated surface code.

    X checks touch their corners in (NW, NE, SW, SE) order; Z checks in
    (NW, SW, NE, SE) order.  Qubits not acted on in a step idle and pick
    up idle noise.  As with the bicycle circuit, a noiseless extraction
    round closes the detector windows.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    code = build_rotated_surface(d)
    n = code.n
    m_x, m_z = code.hx.rows, code.hz.rows
    x_anc = [n + i for i in range(m_x)]
    z_anc = [n + m_x + i for i in range(m_z)]
    n_qubits = n + m_x + m_z

    # recover face corner lists in geometric order from the row supports
    def corners(sup: tuple[int, ...]) -> list[int | None]:
        rs = sorted(sup)
        if len(rs) == 4:
            return [rs[0], rs[1], rs[2], rs[3]]  # NW NE SW SE (row-major)
        a, b = rs
        if b == a + 1:  # horizontal boundary pair
            if a < d:  # top row: acts as SW SE of a virtual face above
                return [None, None, a, b]
            return [a, b, None, None]  # bottom row: NW NE
        # vertical boundary pair
        if a % d == 0:  # left column: NE SE of a virtual face on the left
            return [None, a, None, b]
        return [a, None, b, None]  # right column: NW SW

    x_order = (0, 1, 2, 3)  # NW NE SW SE
    z_order = (0, 2, 1, 3)  # NW SW NE SE

    meas_counter = [0]

    def meas(kind: str, q: int) -> Op:
        k = meas_counter[0]
        meas_counter[0] += 1
        return (kind, q, k)

    x_corners = [corners(sup) for sup in code.hx.row_supports]
    z_corners = [corners(sup) for sup in code.hz.row_supports]

    def fill_idles(ops: list[Op]) -> list[Op]:
        busy = set()
        for op in ops:
            busy.update(op[1:3] if op[0] == "CX" else op[1:2])
        return ops + [("I", q) for q in range(n_qubits) if q not in busy]

    def round_steps() -> list[list[Op]]:
        rs = []
        rs.append(fill_idles([("IX", q) for q in x_anc] + [("IZ", q) for q in z_anc]))
        for slot in range(4):
            ops: list[Op] = []
            for i in range(m_x):
                data = x_corners[i][x_order[slot]]
                if data is not None:
                    ops.append(("CX", x_anc[i], data))
                else:
                    ops.append(("I", x_anc[i]))
            for i in range(m_z):
                data = z_corners[i][z_order[slot]]
                if data is not None:
                    ops.append(("CX", data, z_anc[i]))
                else:
                    ops.append(("I", z_anc[i]))
            rs.append(fill_idles(ops))
        rs.append(
            fill_idles([meas("MX", q) for q in x_anc] + [meas("MZ", q) for q in z_anc])
        )
        return rs

    steps: list[list[Op]] = []
    for _ in range(t_rounds):
        steps.extend(round_steps())
    noisy_steps = len(steps)
    steps.extend(round_steps())

    def mz_index(i: int, r: int) -> int:
        return (m_x + m_z) * r + m_x + i

    detectors: list[tuple[int, ...]] = []
    for r in range(t_rounds + 1):
        for i in range(m_z):
            if r == 0:
                detectors.append((mz_index(i, 0),))
            else:
                detectors.append((mz_index(i, r - 1), mz_index(i, r)))
    observables = [Observable(frame=tuple(sup)) for sup in code.oz.row_supports]

    circuit = CliffordCircuit(
        n_qubits=n_qubits,
        steps=tuple(tuple(st) for st in steps),
        noisy_steps=noisy_steps,
        detectors=tuple(detectors),
        observables=tuple(observables),
        metadata={"code": code.label, "T": t_rounds,
                  "schedule": "surface-circuit-standard"},
    )
    circuit.validate()
    return circuit


def build_surface_circuit_model(d: int, t_rounds: int, p: float) -> DetectorModel:
    """Enumerated surface-code circuit model with its degeneracy matrix.

    Degeneracy rows are the X stabilizers expressed in mechanism
    coordinates at every round boundary, plus every weight-3 trivial error
    found by exhaustive search.  Stabilizer rows whose mechanisms were
    merged away (indistinguishable boundary qubits) reduce to nothing and
    are skipped.
    """
    circuit = build_surface_circuit(d, t_rounds)
    model = enumerate_fault_mechanisms(circuit, p)
    code = build_rotated_surface(d)
    after, before_circuit, _ = _responses(circuit)

    mech_index: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for c in range(model.check_matrix.cols):
        mech_index[(model.check_matrix.col(c), model.observables.col(c))] = c

    m_dets = len(circuit.detectors)

    def mech_of_sig(sig: int) -> int:
        det_bits = BitVec(m_dets, sig & ((1 << m_dets) - 1)).support
        obs_bits = BitVec(len(circuit.observables), sig >> m_dets).support
        key = (det_bits, obs_bits)
        if key not in mech_index:
            raise ValueError("no mechanism matches the requested signature")
        return mech_index[key]

    steps_per_round = 6
    rows: set[tuple[int, ...]] = set()
    for t in range(t_rounds + 1):
        if t == 0:
            resp = before_circuit
        else:
            resp = after[t * steps_per_round - 1]
        for sup in code.hx.row_supports:
            acc: set[int] = set()
            for q in sup:
                acc.symmetric_difference_update((mech_of_sig(resp[q]),))
            if acc:
                rows.add(tuple(sorted(acc)))
    for triv in find_low_weight_trivial(model.check_matrix, model.observables, 3):
        rows.add(triv.support)
    ddm = SparseBinMatrix(len(rows), model.check_matrix.cols, sorted(rows))
    return model.with_degeneracy(ddm)
