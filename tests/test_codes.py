"""Code constructor tests: parameters, CSS identities, logical operators."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reduce_logical_weight
from qldpc_dc.codes import (
    BbParams,
    bb_check_matrices,
    bb_params,
    build_bb,
    build_rotated_surface,
    compute_logicals,
    parse_monomials,
)
from qldpc_dc.gf2 import BitVec, in_rowspace, mat_mat_t, mat_vec_t, rank


class TestRotatedSurface:
    def test_d3_parameters(self):
        code = build_rotated_surface(3)
        assert (code.n, code.k) == (9, 1)
        assert code.hx.rows == 4 and code.hz.rows == 4

    def test_d3_weights(self):
        code = build_rotated_surface(3)
        assert all(len(r) in (2, 4) for r in code.hx.row_supports)
        assert all(len(c) <= 2 for c in code.hx.col_supports)
        assert all(len(c) <= 2 for c in code.hz.col_supports)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_parameters_and_invariants(self, d):
        code = build_rotated_surface(d)
        assert (code.n, code.k) == (d * d, 1)
        code.validate()

    def test_d5_rank_oracle(self):
        code = build_rotated_surface(5)
        assert code.n - rank(code.hx) - rank(code.hz) == 1

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_stabilizer_count(self, d):
        code = build_rotated_surface(d)
        assert code.hx.rows + code.hz.rows == code.n - 1

    @pytest.mark.parametrize("d", [2, 4, 1])
    def test_invalid_d_rejected(self, d):
        with pytest.raises(ValueError):
            build_rotated_surface(d)


class TestBbCode:
    @pytest.mark.parametrize(
        "l,m,n,k", [(6, 6, 72, 12), (9, 6, 108, 8), (12, 6, 144, 12)]
    )
    def test_table_parameters(self, l, m, n, k):
        code = build_bb(bb_params(l, m))
        assert (code.n, code.k) == (n, k)

    def test_row_and_column_weights(self):
        code = build_bb(bb_params(6, 6))
        assert all(len(r) == 6 for r in code.hx.row_supports)
        assert all(len(r) == 6 for r in code.hz.row_supports)
        assert all(len(c) == 3 for c in code.hx.col_supports)

    def test_commutation_any_params(self):
        params = BbParams(
            l=4, m=5,
            a_monomials=(("x", 1), ("y", 2), ("y", 4)),
            b_monomials=(("y", 1), ("x", 2), ("x", 3)),
        )
        hx, hz = bb_check_matrices(params)
        assert mat_mat_t(hz, hx).nnz == 0
        with pytest.raises(ValueError, match=r"encodes no logical qubit \(k=0\)"):
            build_bb(params)  # these monomials give k = 0

    def test_deterministic(self):
        a = build_bb(bb_params(6, 6))
        b = build_bb(bb_params(6, 6))
        assert a.hx == b.hx and a.hz == b.hz and a.oz == b.oz and a.ox == b.ox

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            BbParams(
                l=6, m=6,
                a_monomials=(("x", 3), ("x", 9), ("y", 1)),  # x^9 = x^3
                b_monomials=(("y", 3), ("x", 1), ("x", 2)),
            )
        with pytest.raises(ValueError):
            BbParams(
                l=6, m=6,
                a_monomials=(("z", 3), ("y", 1), ("y", 2)),
                b_monomials=(("y", 3), ("x", 1), ("x", 2)),
            )
        for token in ("yy", "x", "", "x-1", "y1.5"):
            with pytest.raises(ValueError, match=f"bad monomial '{token}', expected like 'x3'"):
                bb_params(6, 6, a=f"x3,y1,{token}")

    def test_parse_monomials(self):
        assert parse_monomials("x3,y1,y2") == (("x", 3), ("y", 1), ("y", 2))
        with pytest.raises(ValueError):
            parse_monomials("q3")

    def test_bb_params_monomial_overrides(self):
        std = bb_params(6, 6)
        assert bb_params(6, 6, "x3,y1,y2", "y3,x1,x2") == std
        custom = bb_params(6, 6, a="x1,y1,y2")
        assert custom.a_monomials == (("x", 1), ("y", 1), ("y", 2))
        assert custom.b_monomials == std.b_monomials
        assert bb_params(6, 6, b="y1,x1,x2").a_monomials == std.a_monomials

    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_params_validate(self, l, m, data):
        pool = [("x", e) for e in range(l)] + [("y", e) for e in range(m)]

        def monos():
            picks = data.draw(
                st.lists(
                    st.sampled_from(range(len(pool))),
                    min_size=3, max_size=3, unique=True,
                )
            )
            return tuple(pool[i] for i in picks)

        try:
            code = build_bb(BbParams(l=l, m=m, a_monomials=monos(), b_monomials=monos()))
        except ValueError:
            return  # colliding permutations and k = 0 are legal rejections
        code.validate()


class TestComputeLogicals:
    def test_surface_d3_weight_three_row(self):
        code = build_rotated_surface(3)
        reduced = reduce_logical_weight(
            BitVec.from_support(code.n, code.oz.row(0)), code.hz
        )
        assert reduced.weight() == 3
        # exhaustive oracle: min weight over ker(H_X) \ rowspace(H_Z) is 3
        best = None
        for bits in range(1, 1 << code.n):
            v = BitVec(code.n, bits)
            if mat_vec_t(v, code.hx).weight():
                continue
            if in_rowspace(v, code.hz):
                continue
            w = v.weight()
            best = w if best is None else min(best, w)
        assert best == 3

    def test_bb72_logical_weights(self):
        code = build_bb(bb_params(6, 6))
        assert code.oz.rows == 12
        for sup in code.oz.row_supports:
            v = reduce_logical_weight(BitVec.from_support(code.n, sup), code.hz)
            assert v.weight() >= 6
        for sup in code.ox.row_supports:
            v = reduce_logical_weight(BitVec.from_support(code.n, sup), code.hx)
            assert v.weight() >= 6

    @pytest.mark.parametrize("build", [
        lambda: build_rotated_surface(3),
        lambda: build_rotated_surface(5),
        lambda: build_bb(bb_params(6, 6)),
    ])
    def test_orthogonality_and_pairing(self, build):
        code = build()
        assert mat_mat_t(code.oz, code.hx).nnz == 0
        assert mat_mat_t(code.ox, code.hz).nnz == 0
        pairing = mat_mat_t(code.ox, code.oz)
        assert pairing == type(pairing).identity(code.k)

    @pytest.mark.parametrize("label,build,digest", [
        ("surface:3", lambda: build_rotated_surface(3),
         "7b94d9eccf226d6a592b072ecd0754cb9197b6c4225c3c5cca1c05219e9b92fe"),
        ("surface:5", lambda: build_rotated_surface(5),
         "e49c7238655a1b1be29f3600ba8fcdfc83d846fd67d399070a62588af72f003a"),
        ("bb:6,6", lambda: build_bb(bb_params(6, 6)),
         "0d0b27aa18f0544f2807727e18fc25808ad0b1017cc4960cfb52e5ee0b436f0b"),
        ("bb:12,6", lambda: build_bb(bb_params(12, 6)),
         "2e9d2d19aa74b61c38ab615156d4598c8f79691162ae4b0638a85a1d5a9831d2"),
    ])
    def test_logical_rows_pinned(self, label, build, digest):
        """The chosen O_X/O_Z representatives feed every observable in the
        CSVs, so any change to them is a change of results."""
        code = build()
        supports = repr((code.ox.row_supports, code.oz.row_supports)).encode()
        assert hashlib.sha256(supports).hexdigest() == digest, label

    def test_rejects_non_css_pair(self):
        from qldpc_dc.gf2 import SparseBinMatrix

        hx = SparseBinMatrix(1, 3, [(0, 1)])
        hz = SparseBinMatrix(1, 3, [(1, 2)])
        with pytest.raises(ValueError):
            compute_logicals(hx, hz)
