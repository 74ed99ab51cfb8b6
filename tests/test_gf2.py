"""GF(2) kernel tests against dense numpy oracles and exhaustive enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_solve,
    reference_without_columns,
    sparse_matrices,
    sparse_matrices_of,
)
from qldpc_dc import noise, sim
from qldpc_dc.bp import MIN_SUM, BpDecoder
from qldpc_dc.codes import _nullspace_basis
from qldpc_dc.gf2 import (
    BitVec,
    PivotBasis,
    SparseBinMatrix,
    TripletFormatError,
    in_rowspace,
    inverse,
    load_triplet,
    mat_mat_t,
    mat_vec_t,
    rank,
    save_triplet,
    solve,
)
from qldpc_dc.postproc import osd0_decode


def dense_mat_vec(v: BitVec, m: SparseBinMatrix) -> np.ndarray:
    """Independent dense reference for v * M^T."""
    return (m.to_dense() @ v.to_dense()) % 2


def dense_rank(m: SparseBinMatrix) -> int:
    """Reference rank via dense elimination."""
    a = m.to_dense().copy()
    r = 0
    for col in range(a.shape[1]):
        rows = np.flatnonzero(a[r:, col]) + r
        if rows.size == 0:
            continue
        a[[r, rows[0]]] = a[[rows[0], r]]
        for rr in range(a.shape[0]):
            if rr != r and a[rr, col]:
                a[rr] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def exhaustive_rowspace(m: SparseBinMatrix) -> set:
    """All 2^rows row combinations; only usable for small matrices."""
    out = set()
    for mask in range(1 << m.rows):
        acc = 0
        for i in range(m.rows):
            if (mask >> i) & 1:
                acc ^= m.row_bits[i]
        out.add(acc)
    return out


class TestBitVec:
    def test_from_support_roundtrip(self):
        v = BitVec.from_support(10, [1, 4, 7])
        assert v.support == (1, 4, 7)
        assert v.weight() == 3
        assert v[4] == 1 and v[5] == 0

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            BitVec.from_support(5, [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BitVec.from_support(3, [3])

    def test_xor(self):
        a = BitVec.from_support(6, [0, 2])
        b = BitVec.from_support(6, [2, 5])
        assert (a ^ b).support == (0, 5)

    def test_dense_roundtrip(self):
        v = BitVec.from_support(7, [0, 6])
        assert BitVec.from_dense(v.to_dense()) == v


class TestSparseBinMatrixEntries:
    def test_entry_row_out_of_range_rejected(self):
        for entry in [(5, 0), (-1, 1)]:
            with pytest.raises(ValueError, match=f"row index {entry[0]} out of range"):
                SparseBinMatrix.from_entries(2, 3, [entry, (0, 2)])

    def test_negative_column_is_out_of_range(self):
        with pytest.raises(ValueError, match="row 0: column index -1 out of range"):
            SparseBinMatrix(1, 3, [[-1]])


class TestMatVecT:
    def test_zero_vector(self):
        m = SparseBinMatrix(3, 4, [(0, 1), (2,), (1, 3)])
        assert mat_vec_t(BitVec.zeros(4), m) == BitVec.zeros(3)

    def test_hand_parity(self):
        m = SparseBinMatrix(3, 2, [(0,), (1,), (0, 1)])
        v = BitVec.from_support(2, [0, 1])
        assert mat_vec_t(v, m).support == (0, 1)

    def test_dimension_mismatch(self):
        m = SparseBinMatrix(2, 3, [(0,), (1, 2)])
        with pytest.raises(ValueError):
            mat_vec_t(BitVec.zeros(2), m)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=60)
    def test_matches_dense_oracle(self, m, data):
        sup = data.draw(st.sets(st.integers(0, m.cols - 1), max_size=m.cols))
        v = BitVec.from_support(m.cols, sup)
        assert np.array_equal(mat_vec_t(v, m).to_dense(), dense_mat_vec(v, m))

    @given(sparse_matrices(), st.data())
    @settings(max_examples=40)
    def test_distributes_over_xor(self, m, data):
        a = BitVec.from_support(
            m.cols, data.draw(st.sets(st.integers(0, m.cols - 1)))
        )
        b = BitVec.from_support(
            m.cols, data.draw(st.sets(st.integers(0, m.cols - 1)))
        )
        assert mat_vec_t(a ^ b, m) == mat_vec_t(a, m) ^ mat_vec_t(b, m)


class TestMatMatT:
    def test_identity(self):
        i3 = SparseBinMatrix.identity(3)
        assert mat_mat_t(i3, i3) == i3

    def test_surface_css_orthogonality(self):
        from qldpc_dc.codes import build_rotated_surface

        code = build_rotated_surface(3)
        assert mat_mat_t(code.hz, code.hx).nnz == 0

    @given(sparse_matrices(), st.data())
    @settings(max_examples=40)
    def test_matches_dense_oracle(self, a, data):
        b_rows = data.draw(st.integers(1, 6))
        sups = [
            data.draw(st.sets(st.integers(0, a.cols - 1)))
            for _ in range(b_rows)
        ]
        b = SparseBinMatrix(b_rows, a.cols, sups)
        expect = (a.to_dense() @ b.to_dense().T) % 2
        assert np.array_equal(mat_mat_t(a, b).to_dense(), expect)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=40)
    def test_transpose_identity(self, a, data):
        b_rows = data.draw(st.integers(1, 6))
        sups = [
            data.draw(st.sets(st.integers(0, a.cols - 1)))
            for _ in range(b_rows)
        ]
        b = SparseBinMatrix(b_rows, a.cols, sups)
        assert mat_mat_t(a, b).transpose() == mat_mat_t(b, a)


@st.composite
def column_products(draw):
    """Two matrices over the same 0 to 8 columns, each with 0 to 6 rows, and
    a vector of that length; rows, columns and the vector may be empty."""
    cols = draw(st.integers(0, 8))
    subsets = st.sets(st.integers(0, cols - 1)) if cols else st.just(set())
    a, b = draw(st.lists(subsets, max_size=6)), draw(st.lists(subsets, max_size=6))
    return (SparseBinMatrix(len(a), cols, a), SparseBinMatrix(len(b), cols, b),
            BitVec.from_support(cols, draw(subsets)))


class TestColumnProducts:
    @given(column_products())
    @example((SparseBinMatrix.zeros(0, 3), SparseBinMatrix.zeros(2, 3), BitVec.zeros(3)))
    @example((SparseBinMatrix.zeros(2, 0), SparseBinMatrix.zeros(0, 0), BitVec.zeros(0)))
    @example((SparseBinMatrix(2, 3, [(0, 2), ()]), SparseBinMatrix(1, 3, [(0, 2)]),
              BitVec.from_support(3, [0, 1, 2])))
    @settings(max_examples=200)
    def test_products_equal_dense_products_and_build_no_row_bits(self, case):
        """v M^T and A B^T, as XORs of column bitmasks, equal the dense
        (M v) % 2 and (A B^T) % 2, and never build row bitmasks."""
        a, b, v = case
        dense_a, dense_b = a.to_dense().astype(int), b.to_dense().astype(int)
        assert np.array_equal(mat_vec_t(v, a).to_dense(), dense_a @ v.to_dense() % 2)
        assert mat_vec_t(BitVec.zeros(a.cols), a) == BitVec.zeros(a.rows)
        product = mat_mat_t(a, b)
        assert product.shape == (a.rows, b.rows)
        assert np.array_equal(product.to_dense(), dense_a @ dense_b.T % 2)
        assert a._row_bits is None and b._row_bits is None


class TestRank:
    def test_zero_matrix(self):
        assert rank(SparseBinMatrix.zeros(4, 5)) == 0

    def test_identity(self):
        assert rank(SparseBinMatrix.identity(6)) == 6

    def test_bb72_hx_rank(self):
        from qldpc_dc.codes import bb_params, build_bb

        code = build_bb(bb_params(6, 6))
        assert rank(code.hx) == 30
        assert code.n - rank(code.hx) - rank(code.hz) == 12

    @given(sparse_matrices())
    @settings(max_examples=60)
    def test_matches_dense_oracle(self, m):
        assert rank(m) == dense_rank(m)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=40)
    def test_invariant_under_row_ops(self, m, data):
        r0 = rank(m)
        perm = data.draw(st.permutations(range(m.rows)))
        permuted = SparseBinMatrix(m.rows, m.cols, [m.row(i) for i in perm])
        assert rank(permuted) == r0
        if m.rows >= 2:
            i = data.draw(st.integers(0, m.rows - 1))
            j = data.draw(st.integers(0, m.rows - 1))
            if i != j:
                sups = list(m.row_supports)
                merged = set(sups[i]) ^ set(sups[j])
                sups[i] = tuple(sorted(merged))
                assert rank(SparseBinMatrix(m.rows, m.cols, sups)) == r0


class TestColBits:
    @given(sparse_matrices(), st.data())
    @settings(max_examples=60)
    def test_columns_are_transposed_rows(self, m, data):
        assert m.col_bits == m.transpose().row_bits
        removed = data.draw(st.sets(st.integers(0, m.cols - 1)))
        reduced, _ = m.without_columns(removed)
        assert reduced.col_bits == reduced.transpose().row_bits


class TestWithoutColumns:
    @given(sparse_matrices(), st.data())
    @settings(max_examples=100)
    def test_set_list_and_array_give_the_set_and_dict_result(self, m, data):
        """Repeated indices too; the result equals the set-and-dict
        renumbering that the CSR pass replaced."""
        removed = data.draw(st.lists(st.integers(0, m.cols - 1)))
        want, want_kept = reference_without_columns(m, removed)
        for form in (set(removed), removed, np.array(removed, dtype=np.intp)):
            got, kept = m.without_columns(form)
            assert got == want
            assert kept.dtype == np.intp and kept.tolist() == want_kept.tolist()

    @pytest.mark.parametrize("index", [-1, 5])
    def test_index_out_of_range_rejected(self, index):
        m = SparseBinMatrix(2, 5, [(0, 1), (3, 4)])
        with pytest.raises(ValueError, match=f"column index {index} out of range for 5 columns"):
            m.without_columns([1, index])


class TestSolve:
    def test_zero_syndrome(self):
        m = SparseBinMatrix(2, 3, [(0, 1), (1, 2)])
        x = solve(m, BitVec.zeros(2), [0, 1, 2])
        assert x == BitVec.zeros(3)

    def test_invertible_square_unique(self):
        m = SparseBinMatrix(3, 3, [(0, 1), (1,), (1, 2)])
        s = BitVec.from_support(3, [0, 2])
        for order in itertools.permutations(range(3)):
            x = solve(m, s, list(order))
            assert x is not None
            assert mat_vec_t(x, m) == s
        # unique solution: direct enumeration
        sols = [
            bits
            for bits in range(8)
            if mat_vec_t(BitVec(3, bits), m) == s
        ]
        assert len(sols) == 1

    def test_inconsistent_returns_none(self):
        m = SparseBinMatrix(2, 2, [(0,), (0,)])
        s = BitVec.from_support(2, [0])
        assert solve(m, s, [0, 1]) is None

    @given(sparse_matrices(), st.data())
    @settings(max_examples=60)
    def test_solution_satisfies_system(self, m, data):
        x_true = BitVec.from_support(
            m.cols, data.draw(st.sets(st.integers(0, m.cols - 1)))
        )
        s = mat_vec_t(x_true, m)
        order = list(data.draw(st.permutations(range(m.cols))))
        x = solve(m, s, order)
        assert x is not None
        assert mat_vec_t(x, m) == s
        # the greedy pivot set has at most rank(M) columns
        assert x.weight() <= rank(m)

    @pytest.mark.parametrize("solver", [solve, reference_solve])
    def test_input_checks(self, solver):
        m = SparseBinMatrix(2, 3, [(0, 1), (1, 2)])
        s = BitVec.from_support(2, [0])
        with pytest.raises(ValueError, match="syndrome length"):
            solver(m, BitVec.zeros(3), [0, 1, 2])
        for order in ([0, 1, 1], [0, 1], [0, 1, 3], [0, 1, 2, 3], [-1, 0, 1]):
            for as_given in (order, np.array(order)):
                with pytest.raises(ValueError, match="permutation"):
                    solver(m, s, as_given)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=60)
    def test_ndarray_order_matches_list(self, m, data):
        """OSD-0 passes its argsort array; a list of the same columns solves alike."""
        s = BitVec(m.rows, data.draw(st.integers(0, (1 << m.rows) - 1)))
        order = list(data.draw(st.permutations(range(m.cols))))
        assert solve(m, s, np.array(order)) == solve(m, s, order)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=300)
    def test_matches_row_elimination(self, m, data):
        """Any syndrome, so inconsistent systems are drawn too."""
        s = BitVec(m.rows, data.draw(st.integers(0, (1 << m.rows) - 1)))
        order = list(data.draw(st.permutations(range(m.cols))))
        assert solve(m, s, order) == reference_solve(m, s, order)

    def test_matches_row_elimination_on_osd_syndromes(self):
        """OSD-0's column order on the syndromes BP fails on, circuit level."""
        cfg = sim.ExperimentConfig(
            code="bb:6,6", noise="circuit-bb", rounds=3, p=0.01, decoder="bp-osd",
            trials=60, seed=7, bp_variant=MIN_SUM, min_sum_scale=1.0, max_iter=100,
        )
        model = sim.build_model(cfg)
        h = model.check_matrix
        dec = BpDecoder(h, MIN_SUM, 1.0)
        bp_failures = 0
        for t in range(cfg.trials):
            syndrome = noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome
            out = dec.decode(syndrome, model.priors, cfg.max_iter)
            if out.converged:
                continue
            bp_failures += 1
            order = [int(c) for c in np.argsort(-out.soft, kind="stable")]
            assert osd0_decode(h, syndrome, out.soft) == reference_solve(h, syndrome, order)
        assert bp_failures == 44


class TestInRowspace:
    def test_zero_vector(self):
        m = SparseBinMatrix(2, 4, [(0, 1), (2, 3)])
        assert in_rowspace(BitVec.zeros(4), m)

    def test_single_row(self):
        m = SparseBinMatrix(2, 4, [(0, 1), (2, 3)])
        assert in_rowspace(BitVec.from_support(4, [0, 1]), m)

    def test_outside_span(self):
        m = SparseBinMatrix(2, 4, [(0, 1), (2, 3)])
        assert not in_rowspace(BitVec.from_support(4, [0]), m)

    @given(sparse_matrices(max_rows=6, max_cols=8), st.data())
    @settings(max_examples=40)
    def test_matches_exhaustive_span(self, m, data):
        span = exhaustive_rowspace(m)
        sup = data.draw(st.sets(st.integers(0, m.cols - 1)))
        v = BitVec.from_support(m.cols, sup)
        assert in_rowspace(v, m) == (v.bits in span)


class TestPivotBasis:
    @given(sparse_matrices())
    @settings(max_examples=60)
    def test_full_reduction_is_reduced_echelon(self, m):
        full = PivotBasis(m.row_bits, full=True)
        assert sorted(full) == sorted(PivotBasis(m.row_bits))
        assert len(full) == dense_rank(m)
        for c, row in full.items():
            assert (row & -row).bit_length() - 1 == c
            assert all(not (row >> c2) & 1 for c2 in full if c2 != c)
            assert not PivotBasis(m.row_bits).add(row)

    @given(sparse_matrices(max_rows=6, max_cols=8), st.data())
    @settings(max_examples=40)
    def test_add_reports_growth_of_the_span(self, m, data):
        span = exhaustive_rowspace(m)
        basis = PivotBasis(m.row_bits)
        v = data.draw(st.integers(0, (1 << m.cols) - 1))
        assert basis.add(v) == (v not in span)
        assert len(basis) == dense_rank(m) + (v not in span)


class TestInverse:
    def test_identity(self):
        assert inverse(SparseBinMatrix.identity(5)) == SparseBinMatrix.identity(5)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            inverse(SparseBinMatrix(2, 3, [(0,), (1,)]))

    @given(st.integers(1, 8).flatmap(lambda k: sparse_matrices_of(k, k)))
    @settings(max_examples=80)
    def test_inverse_or_singular(self, m):
        if dense_rank(m) < m.rows:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
            return
        inv = inverse(m)
        eye = SparseBinMatrix.identity(m.rows)
        # A B^T with B = (A^-1)^T is A A^-1; and the other side
        assert mat_mat_t(m, inv.transpose()) == eye
        assert mat_mat_t(inv, m.transpose()) == eye


class TestNullspaceBasis:
    @given(sparse_matrices())
    @settings(max_examples=60)
    def test_basis_of_the_kernel(self, m):
        basis = _nullspace_basis(m)
        for bits in basis:
            assert mat_vec_t(BitVec(m.cols, bits), m).weight() == 0
        assert len(basis) == m.cols - dense_rank(m)
        if basis:
            stacked = SparseBinMatrix(
                len(basis), m.cols, [BitVec(m.cols, b).support for b in basis]
            )
            assert dense_rank(stacked) == len(basis)


class TestTripletFormat:
    def test_roundtrip(self, tmp_path):
        m = SparseBinMatrix(3, 5, [(0, 4), (), (1, 2, 3)])
        path = tmp_path / "m.txt"
        save_triplet(m, path)
        assert load_triplet(path) == m

    def test_header_reports_nnz(self, tmp_path):
        m = SparseBinMatrix(2, 2, [(0,), (0, 1)])
        path = tmp_path / "m.txt"
        save_triplet(m, path)
        assert path.read_text().splitlines()[0] == "2 2 3"

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1\n0 0 7\n")
        with pytest.raises(TripletFormatError, match="line 2"):
            load_triplet(path)

    def test_out_of_range_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1\n5 0\n")
        with pytest.raises(TripletFormatError, match="line 2"):
            load_triplet(path)

    @pytest.mark.parametrize("header", ["2 -5 0", "-1 3 0", "2 2 -1"])
    def test_negative_size_reports_line_1(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(TripletFormatError, match=r"line 1: negative size"):
            load_triplet(path)

    @pytest.mark.parametrize("rows, cols", [(2, -5), (-1, 3)])
    def test_matrix_rejects_negative_dimensions(self, rows, cols):
        with pytest.raises(ValueError, match="nonnegative"):
            SparseBinMatrix(rows, cols, [()] * max(rows, 0))
