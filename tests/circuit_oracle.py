"""The generic circuit model: a Pauli-frame fault enumerator, kept as an oracle.

``qldpc_dc.detmodel`` builds circuit-level bicycle models from explicit
block matrices.  This module builds the same models a second, independent
way: it propagates X-type Pauli frames through the eight-step
syndrome-extraction schedule and groups the fault signatures into error
mechanisms (after Stim's detector error models, Gidney, arXiv:2103.02202).
The tests compare the two routes column by column.  A rotated-surface-code
circuit built the same way exercises the enumerator on a second schedule.

Pauli-frame rules used by the enumerator (X components only, since
Z-basis detectors are blind to Z frames):

    CNOT(c, t):  X on c spreads to t; X on t stays put.
    InitZ/InitX: any prior frame on the prepared qubit is erased.
    MeasZ:       an X frame flips the recorded outcome and survives.
    MeasX:       outcome is discarded; the frame survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from qldpc_dc.codes import BbParams, bb_block_permutations, build_bb, build_rotated_surface
from qldpc_dc.detmodel import (
    PRIOR_FLOOR, DetectorModel, combine_odd_parity, find_low_weight_trivial,
)
from qldpc_dc.gf2 import BitVec, SparseBinMatrix


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


# ---------------------------------------------------------------------------
# bicycle-code syndrome extraction circuit
# ---------------------------------------------------------------------------


def _invert(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


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
    return replace(model, degeneracy_matrix=ddm)
