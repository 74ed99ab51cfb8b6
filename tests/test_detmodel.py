"""Detector model tests.

Two independent oracles guard the circuit-level machinery: a direct
round-by-round syndrome simulation for the phenomenological matrices, and
a forward Pauli-frame simulator (separate from the enumerator's backward
response pass in ``circuit_oracle``) for circuit fault signatures.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circuit_oracle
from circuit_oracle import (
    CliffordCircuit,
    _responses,
    build_bb_circuit,
    build_surface_circuit,
    build_surface_circuit_model,
    enumerate_fault_mechanisms,
)
from qldpc_dc.codes import bb_params, build_bb, build_rotated_surface
from qldpc_dc.detmodel import (
    build_bb_circuit_dcm,
    build_bb_circuit_ddm,
    build_bb_circuit_model,
    build_pheno_ddm,
    build_pheno_dcm,
    build_pheno_model,
    code_capacity_model,
    combine_odd_parity,
    find_low_weight_trivial,
)
from qldpc_dc.gf2 import BitVec, SparseBinMatrix, mat_vec_t


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def simulate_pheno_column(code, t_rounds, data_errors, meas_errors):
    """Round-by-round syndrome simulation, independent of the matrix builder.

    data_errors[t] are fresh bit flips before round t (t = t_rounds means
    before the final noiseless round); meas_errors[t] flip round-t outcomes.
    Returns the detector vector.
    """
    n, m_z = code.n, code.hz.rows
    hz = code.hz.to_dense()
    cumulative = np.zeros(n, dtype=np.uint8)
    outcomes = []
    for t in range(t_rounds):
        cumulative ^= data_errors.get(t, np.zeros(n, dtype=np.uint8))
        syn = hz @ cumulative % 2
        syn ^= meas_errors.get(t, np.zeros(m_z, dtype=np.uint8))
        outcomes.append(syn)
    cumulative ^= data_errors.get(t_rounds, np.zeros(n, dtype=np.uint8))
    outcomes.append(hz @ cumulative % 2)  # noiseless final round
    dets = [outcomes[0]]
    for t in range(1, t_rounds + 1):
        dets.append(outcomes[t - 1] ^ outcomes[t])
    return np.concatenate(dets)


def forward_frame_simulation(circuit: CliffordCircuit, step: int, frame: dict):
    """Propagate an X frame inserted after `step` to (detector, observable) flips.

    Plain forward loop over the remaining timesteps; the production code
    uses a backward response pass instead.
    """
    x = np.zeros(circuit.n_qubits, dtype=np.uint8)
    for q, v in frame.items():
        x[q] = v
    records = {}
    # replay measurements before the insertion point as clean
    for t, ops in enumerate(circuit.steps):
        for op in ops:
            if op[0] in ("MZ", "MX") and t <= step:
                records[op[2]] = 0
    for t in range(step + 1, len(circuit.steps)):
        for op in circuit.steps[t]:
            kind = op[0]
            if kind == "CX":
                x[op[2]] ^= x[op[1]]
            elif kind in ("IZ", "IX"):
                x[op[1]] = 0
            elif kind == "MZ":
                records[op[2]] = int(x[op[1]])
            elif kind == "MX":
                records[op[2]] = 0
    det_flips = []
    for d, meas in enumerate(circuit.detectors):
        if sum(records[k] for k in meas) % 2:
            det_flips.append(d)
    obs_flips = []
    for j, obs in enumerate(circuit.observables):
        parity = sum(records[k] for k in obs.meas)
        parity += sum(int(x[q]) for q in obs.frame)
        if parity % 2:
            obs_flips.append(j)
    return tuple(det_flips), tuple(obs_flips)


# ---------------------------------------------------------------------------
# combine_odd_parity
# ---------------------------------------------------------------------------


class TestCombineOddParity:
    def test_single(self):
        assert combine_odd_parity([0.3]) == pytest.approx(0.3)

    def test_pair(self):
        q = 0.2
        assert combine_odd_parity([q, q]) == pytest.approx(2 * q * (1 - q))

    def test_worked_grouping_closed_form(self):
        p = 0.001
        got = combine_odd_parity([p / 15] * 8)
        assert got == pytest.approx(0.5 * (1 - (1 - 2 * p / 15) ** 8), abs=1e-15)
        assert got == pytest.approx(8 * p / 15, rel=1e-3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            combine_odd_parity([0.6])

    @given(st.lists(st.floats(0, 0.5), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_bounded_and_symmetric(self, ps):
        v = combine_odd_parity(ps)
        assert 0.0 <= v <= 0.5
        assert combine_odd_parity(list(reversed(ps))) == pytest.approx(v)

    @given(
        st.lists(st.floats(0.0, 0.49), min_size=1, max_size=5),
        st.integers(0, 4),
        st.floats(0.001, 0.01),
    )
    @settings(max_examples=40)
    def test_monotone_in_each_argument(self, ps, idx, bump):
        idx = idx % len(ps)
        bumped = list(ps)
        bumped[idx] = min(0.5, bumped[idx] + bump)
        assert combine_odd_parity(bumped) >= combine_odd_parity(ps) - 1e-12


# ---------------------------------------------------------------------------
# phenomenological model
# ---------------------------------------------------------------------------


class TestPhenoModel:
    def test_d3_shape(self):
        code = build_rotated_surface(3)
        model = build_pheno_dcm(code, 1, 0.01)
        assert model.check_matrix.shape == (8, 22)

    @pytest.mark.parametrize("build,r,c", [
        (lambda: build_rotated_surface(3), 4, 2),
        (lambda: build_bb(bb_params(6, 6)), 6, 3),
    ])
    def test_weight_bounds(self, build, r, c):
        code = build()
        model = build_pheno_dcm(code, 3, 0.01)
        assert max(len(s) for s in model.check_matrix.row_supports) <= r + 2
        assert max(len(s) for s in model.check_matrix.col_supports) <= c
        ddm = build_pheno_ddm(code, 3)
        bound = max(r, c + 2)
        assert max(len(s) for s in ddm.row_supports) <= bound
        assert max(len(s) for s in ddm.col_supports) <= bound

    def test_single_measurement_error_flips_two_rounds(self):
        code = build_rotated_surface(3)
        t_rounds = 3
        model = build_pheno_dcm(code, t_rounds, 0.01)
        m_z = code.hz.rows
        for t in range(t_rounds):
            for i in range(m_z):
                col = t * (code.n + m_z) + code.n + i
                dets = simulate_pheno_column(
                    code, t_rounds, {}, {t: np.eye(m_z, dtype=np.uint8)[i]}
                )
                assert np.array_equal(
                    model.check_matrix.to_dense()[:, col], dets
                )
                expected = {t * m_z + i, (t + 1) * m_z + i}
                assert set(np.flatnonzero(dets)) == expected

    def test_every_column_matches_direct_simulation(self):
        code = build_rotated_surface(3)
        t_rounds = 2
        model = build_pheno_dcm(code, t_rounds, 0.01)
        dense = model.check_matrix.to_dense()
        n, m_z = code.n, code.hz.rows
        rng = np.random.default_rng(0)
        for col in rng.choice(model.check_matrix.cols, size=12, replace=False):
            col = int(col)
            block, offset = divmod(col, n + m_z)
            if block >= t_rounds:
                data = {t_rounds: np.eye(n, dtype=np.uint8)[col - t_rounds * (n + m_z)]}
                meas = {}
            elif offset < n:
                data = {block: np.eye(n, dtype=np.uint8)[offset]}
                meas = {}
            else:
                data = {}
                meas = {block: np.eye(m_z, dtype=np.uint8)[offset - n]}
            dets = simulate_pheno_column(code, t_rounds, data, meas)
            assert np.array_equal(dense[:, col], dets)

    @pytest.mark.parametrize("build,t", [
        (lambda: build_rotated_surface(3), 3),
        (lambda: build_rotated_surface(5), 5),
        (lambda: build_bb(bb_params(6, 6)), 6),
    ])
    def test_orthogonality(self, build, t):
        model = build_pheno_model(build(), t, 0.01)
        model.validate()  # asserts H_DDM H_DCM^T = 0 and H_DDM O^T = 0

    def test_middle_block_rows_are_trivial(self):
        code = build_rotated_surface(3)
        model = build_pheno_model(code, 2, 0.01)
        for sup in model.degeneracy_matrix.row_supports:
            v = BitVec.from_support(model.check_matrix.cols, sup)
            assert mat_vec_t(v, model.check_matrix).weight() == 0
            assert mat_vec_t(v, model.observables).weight() == 0


# ---------------------------------------------------------------------------
# bicycle syndrome-extraction circuit
# ---------------------------------------------------------------------------


class TestBbCircuit:
    def setup_method(self):
        self.params = bb_params(6, 6)
        self.t_rounds = 2
        self.circuit = build_bb_circuit(self.params, self.t_rounds)
        self.s = 36

    def test_z_ancilla_schedule_counts(self):
        s = self.s
        # in each noisy round a Z ancilla is CNOT target exactly 6 times,
        # then measured at step 7 and re-prepared at step 8
        per_round = self.circuit.steps[1:9]
        targets = {q: 0 for q in range(3 * s, 4 * s)}
        meas = {q: 0 for q in range(3 * s, 4 * s)}
        inits = {q: 0 for q in range(3 * s, 4 * s)}
        for ops in per_round:
            for op in ops:
                if op[0] == "CX" and op[2] >= 3 * s:
                    targets[op[2]] += 1
                elif op[0] == "MZ":
                    meas[op[1]] += 1
                elif op[0] == "IZ" and op[1] >= 3 * s:
                    inits[op[1]] += 1
        assert all(v == 6 for v in targets.values())
        assert all(v == 1 for v in meas.values())
        assert all(v == 1 for v in inits.values())

    def test_x_ancilla_controls_six_cnots(self):
        s = self.s
        per_round = self.circuit.steps[1:9]
        controls = {q: 0 for q in range(2 * s, 3 * s)}
        for ops in per_round:
            for op in ops:
                if op[0] == "CX" and 2 * s <= op[1] < 3 * s:
                    controls[op[1]] += 1
        assert all(v == 6 for v in controls.values())

    def test_measurement_counts(self):
        s = self.s
        mz = sum(1 for step in self.circuit.steps for op in step if op[0] == "MZ")
        mx = sum(1 for step in self.circuit.steps for op in step if op[0] == "MX")
        # T noisy rounds plus the final noiseless readout round
        assert mz == (self.t_rounds + 1) * s
        assert mx == (self.t_rounds + 1) * s

    def test_detector_layout(self):
        s = self.s
        assert len(self.circuit.detectors) == s * (self.t_rounds + 1)
        for i, det in enumerate(self.circuit.detectors[:s]):
            assert len(det) == 1
        for det in self.circuit.detectors[s:]:
            assert len(det) == 2

    def test_validates(self):
        self.circuit.validate()

    def test_validation_rejects_double_booked_qubit(self):
        bad = CliffordCircuit(
            n_qubits=2,
            steps=((("I", 0), ("CX", 0, 1)),),
            noisy_steps=1,
            detectors=(),
            observables=(),
        )
        with pytest.raises(ValueError, match="twice"):
            bad.validate()

    def test_validation_rejects_missing_measurement(self):
        bad = CliffordCircuit(
            n_qubits=1,
            steps=((("MZ", 0, 0),),),
            noisy_steps=1,
            detectors=((0, 1),),
            observables=(),
        )
        with pytest.raises(ValueError, match="missing measurement"):
            bad.validate()


class TestFaultEnumerator:
    def setup_method(self):
        self.params = bb_params(6, 6)
        self.circuit = build_bb_circuit(self.params, 2)

    def test_meas_flip_signature(self):
        s = 36
        model = enumerate_fault_mechanisms(self.circuit, 0.001)
        # a measurement flip of check i in round t flips detectors (i,t),(i,t+1)
        for t in (0, 1):
            for i in (0, 17):
                target = ((t * s + i, (t + 1) * s + i), ())
                cols = [
                    c
                    for c in range(model.check_matrix.cols)
                    if (model.check_matrix.col(c), model.observables.col(c)) == target
                ]
                assert len(cols) == 1

    def test_backward_responses_match_forward_simulation(self):
        after, before, _ = _responses(self.circuit)
        rng = np.random.default_rng(2)
        m_dets = len(self.circuit.detectors)
        for _ in range(40):
            step = int(rng.integers(0, len(self.circuit.steps)))
            q = int(rng.integers(0, self.circuit.n_qubits))
            sig = after[step][q]
            dets = tuple(
                d for d in range(m_dets) if (sig >> d) & 1
            )
            obs = tuple(
                j
                for j in range(len(self.circuit.observables))
                if (sig >> (m_dets + j)) & 1
            )
            assert (dets, obs) == forward_frame_simulation(self.circuit, step, {q: 1})

    def test_signature_multiset_matches_explicit_dcm(self):
        p = 0.001
        enum = enumerate_fault_mechanisms(self.circuit, p)
        expl = build_bb_circuit_dcm(self.params, 2, p)

        def multiset(model):
            return sorted(
                ((model.check_matrix.col(c), model.observables.col(c)), model.priors[c])
                for c in range(model.check_matrix.cols)
            )

        a, b = multiset(enum), multiset(expl)
        assert [x[0] for x in a] == [x[0] for x in b]
        assert max(abs(x[1] - y[1]) for x, y in zip(a, b)) < 1e-12

    def test_mechanism_count(self):
        model = enumerate_fault_mechanisms(self.circuit, 0.001)
        n = 72
        assert model.check_matrix.cols == 5 * n * 2 + n
        assert model.check_matrix.rows == 36 * 3

    @pytest.mark.parametrize("t_rounds", [1, 3])
    def test_cross_check_other_round_counts(self, t_rounds):
        # boundary bookkeeping differs for first, bulk and final rounds;
        # exercise a single-round and a two-bulk-round stack
        p = 0.002
        enum = enumerate_fault_mechanisms(
            build_bb_circuit(self.params, t_rounds), p
        )
        expl = build_bb_circuit_dcm(self.params, t_rounds, p)

        def multiset(model):
            return sorted(
                ((model.check_matrix.col(c), model.observables.col(c)),
                 model.priors[c])
                for c in range(model.check_matrix.cols)
            )

        a, b = multiset(enum), multiset(expl)
        assert [x[0] for x in a] == [x[0] for x in b]
        assert max(abs(x[1] - y[1]) for x, y in zip(a, b)) < 1e-12


def test_circuit_oracle_imports_no_private_name():
    """The oracle stays a second, independent form of the circuit: it uses
    only the package's public names, so no layout helper leaks into it."""
    tree = ast.parse(Path(circuit_oracle.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.startswith("qldpc_dc")
                for alias in node.names]
    assert imported and not [name for name in imported if name[1].startswith("_")]


class TestExplicitCircuitMatrices:
    def test_dcm_weights(self):
        model = build_bb_circuit_dcm(bb_params(6, 6), 2, 0.001)
        assert max(len(s) for s in model.check_matrix.row_supports) == 35
        assert max(len(s) for s in model.check_matrix.col_supports) == 6

    def test_dcm_shape(self):
        t = 3
        model = build_bb_circuit_dcm(bb_params(6, 6), t, 0.001)
        assert model.check_matrix.cols == 5 * 72 * t + 72
        assert model.check_matrix.rows == 36 * (t + 1)

    def test_ddm_orthogonal(self):
        model = build_bb_circuit_model(bb_params(6, 6), 2, 0.001)
        model.validate()

    def test_ddm_row_weight(self):
        ddm = build_bb_circuit_ddm(bb_params(6, 6), 2)
        assert max(len(s) for s in ddm.row_supports) == 6

    def test_ddm_rows_trivial_against_enumerator_model(self):
        params = bb_params(6, 6)
        enum = enumerate_fault_mechanisms(build_bb_circuit(params, 2), 0.001)
        expl = build_bb_circuit_dcm(params, 2, 0.001)
        ddm = build_bb_circuit_ddm(params, 2)
        # translate explicit columns onto enumerator columns via signatures
        sig_to_enum = {
            (enum.check_matrix.col(c), enum.observables.col(c)): c
            for c in range(enum.check_matrix.cols)
        }
        remap = [
            sig_to_enum[(expl.check_matrix.col(c), expl.observables.col(c))]
            for c in range(expl.check_matrix.cols)
        ]
        for sup in ddm.row_supports[: 36 * 3]:
            v = BitVec.from_support(
                enum.check_matrix.cols, sorted(remap[j] for j in sup)
            )
            assert mat_vec_t(v, enum.check_matrix).weight() == 0
            assert mat_vec_t(v, enum.observables).weight() == 0


    @pytest.mark.parametrize("l,m,t_rounds,digest", [
        (6, 6, 1,
         "6e1cdf23c2b6d676c80e3c7edd10440afaa1cc7288e750c9cce2152247b21bd3"),
        (6, 6, 2,
         "5c4ab56b42fb6116a1280edb3aae2bad58ff04711591a67c6539931080b106bb"),
        (6, 6, 6,
         "3827ec68089ee5ec7e85d02a9bfdd57c7d8e9512503185d76ae07ee0deae8984"),
        (9, 6, 2,
         "5ce1c0d3b2496c8ad7ac1f2550731b39a4fbfba239a792f2e913a39a3f0f8751"),
        (12, 6, 12,
         "d65d3396f03bd4f97d40d8b7a2933cb96de343f9219b813933adb951274165a2"),
    ])
    def test_model_pinned(self, l, m, t_rounds, digest):
        """Byte-level pin of the explicit circuit model: check and observable
        rows, priors, and the DDM rows in order (default, without and with
        the extra block).  DC draws its tie-breaks in DDM row order, so row
        order is part of the results even where the row set is not."""
        params = bb_params(l, m)
        model = build_bb_circuit_dcm(params, t_rounds, 0.004)
        sha = hashlib.sha256()
        sha.update(repr(model.check_matrix.row_supports).encode())
        sha.update(repr(model.observables.row_supports).encode())
        sha.update(model.priors.tobytes())
        for extra in (None, False, True):
            ddm = build_bb_circuit_ddm(params, t_rounds, include_extra=extra)
            sha.update(repr(ddm.row_supports).encode())
        assert sha.hexdigest() == digest


class TestLowWeightTrivial:
    def test_identity_columns_have_no_trivial(self):
        h = SparseBinMatrix.identity(5)
        obs = SparseBinMatrix.zeros(1, 5)
        assert find_low_weight_trivial(h, obs, 3) == []

    def test_surface_code_capacity_matches_rowspace(self):
        code = build_rotated_surface(3)
        model = code_capacity_model(code, 0.01)
        found = {
            v.support
            for v in find_low_weight_trivial(model.check_matrix, model.observables, 3)
        }
        # exhaustive oracle: nonzero rowspace(H_X) members of weight <= 3
        expected = set()
        for mask in range(1, 1 << code.hx.rows):
            acc = 0
            for i in range(code.hx.rows):
                if (mask >> i) & 1:
                    acc ^= code.hx.row_bits[i]
            v = BitVec(code.n, acc)
            if 1 <= v.weight() <= 3:
                expected.add(v.support)
        assert found == expected

    def test_bb72_circuit_no_low_weight(self):
        model = build_bb_circuit_dcm(bb_params(6, 6), 2, 0.001)
        found = find_low_weight_trivial(model.check_matrix, model.observables, 2)
        assert found == []

    def test_weight3_completeness_72(self):
        params = bb_params(6, 6)
        model = build_bb_circuit_model(params, 2, 0.001)
        rows = set(model.degeneracy_matrix.row_supports)
        for v in find_low_weight_trivial(model.check_matrix, model.observables, 3):
            assert v.support in rows

    @pytest.mark.slow
    def test_weight3_completeness_144(self):
        params = bb_params(12, 6)
        model = build_bb_circuit_model(params, 2, 0.001)
        rows = set(model.degeneracy_matrix.row_supports)
        triv = find_low_weight_trivial(model.check_matrix, model.observables, 3)
        assert all(v.weight() == 3 for v in triv)
        for v in triv:
            assert v.support in rows

    def test_108_needs_extra_block(self):
        params = bb_params(9, 6)
        dcm = build_bb_circuit_dcm(params, 2, 0.001)
        w3 = {
            v.support
            for v in find_low_weight_trivial(dcm.check_matrix, dcm.observables, 3)
        }
        without = set(build_bb_circuit_ddm(params, 2, include_extra=False).row_supports)
        with_extra = set(build_bb_circuit_ddm(params, 2, include_extra=True).row_supports)
        assert not w3 <= without
        assert w3 <= with_extra


class TestSurfaceCircuit:
    def test_model_validates(self):
        model = build_surface_circuit_model(3, 2, 0.001)
        model.validate()
        assert model.metadata["schedule"] == "surface-circuit-standard"
        assert model.check_matrix.rows == 4 * 3  # m_z (T+1)

    def test_detector_count_matches_formula(self):
        circuit = build_surface_circuit(5, 3)
        assert len(circuit.detectors) == 12 * 4
        circuit.validate()

    def test_ddm_rows_nonempty_and_trivial(self):
        model = build_surface_circuit_model(3, 2, 0.001)
        for sup in model.degeneracy_matrix.row_supports:
            assert sup
            v = BitVec.from_support(model.check_matrix.cols, sup)
            assert mat_vec_t(v, model.check_matrix).weight() == 0
            assert mat_vec_t(v, model.observables).weight() == 0
