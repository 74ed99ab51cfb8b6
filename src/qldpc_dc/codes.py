"""Constructors for rotated surface codes and bivariate bicycle codes.

Both families are CSS codes described by a pair of parity-check matrices
plus logical operator matrices.  Constructors are deterministic and
validate the CSS identities at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import PivotBasis, SparseBinMatrix, inverse, mat_mat_t, rank


@dataclass(frozen=True)
class CssCode:
    """A CSS code bundle: check matrices, logical operator matrices, parameters."""

    n: int
    k: int
    hx: SparseBinMatrix
    hz: SparseBinMatrix
    ox: SparseBinMatrix
    oz: SparseBinMatrix
    label: str

    def validate(self) -> None:
        if mat_mat_t(self.hz, self.hx).nnz != 0:
            raise ValueError("H_Z * H_X^T != 0")
        if mat_mat_t(self.oz, self.hx).nnz != 0:
            raise ValueError("O_Z * H_X^T != 0")
        if mat_mat_t(self.ox, self.hz).nnz != 0:
            raise ValueError("O_X * H_Z^T != 0")
        if rank(mat_mat_t(self.ox, self.oz)) != self.k:
            raise ValueError("O_X * O_Z^T is not full rank")
        if self.k != self.n - rank(self.hx) - rank(self.hz):
            raise ValueError("k != n - rank(H_X) - rank(H_Z)")


@dataclass(frozen=True)
class BbParams:
    """Parameters of a bivariate bicycle code.

    Each monomial is a (base, exponent) pair with base 'x' or 'y'; exponents
    are reduced modulo l for x and modulo m for y.
    """

    l: int
    m: int
    a_monomials: tuple[tuple[str, int], ...]
    b_monomials: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.l < 1 or self.m < 1:
            raise ValueError("l and m must be positive")
        for name in ("a_monomials", "b_monomials"):
            monos = getattr(self, name)
            if len(monos) != 3:
                raise ValueError(f"{name} must contain exactly 3 monomials")
            reduced = []
            for base, exp in monos:
                if base not in ("x", "y"):
                    raise ValueError(f"monomial base must be 'x' or 'y', got {base!r}")
                if exp < 0:
                    raise ValueError("monomial exponent must be nonnegative")
                reduced.append((base, exp % (self.l if base == "x" else self.m)))
            if len(set(reduced)) != 3:
                raise ValueError(f"{name} monomials are not distinct")
            object.__setattr__(self, name, tuple(reduced))


def parse_monomials(text: str) -> tuple[tuple[str, int], ...]:
    """Parse a CLI monomial list such as 'x3,y1,y2'."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if token[:1] not in ("x", "y") or not token[1:].isdecimal():
            raise ValueError(f"bad monomial {token!r}, expected like 'x3' or 'y2'")
        out.append((token[0], int(token[1:])))
    return tuple(out)


def bb_params(l: int, m: int, a: str | None = None, b: str | None = None) -> BbParams:
    """BbParams with the standard A = x^3+y+y^2, B = y^3+x+x^2 monomials,
    unless A or B is given as a monomial list such as 'x3,y1,y2'."""
    return BbParams(
        l=l,
        m=m,
        a_monomials=parse_monomials(a) if a else (("x", 3), ("y", 1), ("y", 2)),
        b_monomials=parse_monomials(b) if b else (("y", 3), ("x", 1), ("x", 2)),
    )


# published distances for the standard-monomial parameter sets; carried as
# metadata only (distance computation is out of scope here)
KNOWN_BB_DISTANCES = {(6, 6): 6, (9, 6): 10, (12, 6): 12}


def known_distance(params_or_code) -> int | None:
    """Cited distance for a known BB parameter set, or the surface-code d."""
    if isinstance(params_or_code, BbParams):
        if params_or_code == bb_params(params_or_code.l, params_or_code.m):
            return KNOWN_BB_DISTANCES.get((params_or_code.l, params_or_code.m))
        return None
    label = getattr(params_or_code, "label", "")
    if label.startswith("surface-d"):
        return int(label.removeprefix("surface-d"))
    return None


def monomial_permutation(l: int, m: int, base: str, exp: int) -> list[int]:
    """Permutation i -> j of the lm group indices realized by x^exp or y^exp.

    Index (i1, i2) of the l x m torus is flattened as i1*m + i2.  The shift
    matrix convention is S[i, j] = 1 iff j = i + 1 mod size, so x^e sends
    row index i1 to i1+e and y^e sends i2 to i2+e.
    """
    perm = []
    for i1 in range(l):
        for i2 in range(m):
            if base == "x":
                perm.append(((i1 + exp) % l) * m + i2)
            else:
                perm.append(i1 * m + (i2 + exp) % m)
    return perm


def bb_block_permutations(params: BbParams) -> tuple[list[list[int]], list[list[int]]]:
    """The six monomial permutations (A1, A2, A3) and (B1, B2, B3)."""
    a = [monomial_permutation(params.l, params.m, b, e) for b, e in params.a_monomials]
    b = [monomial_permutation(params.l, params.m, b_, e) for b_, e in params.b_monomials]
    return a, b


def bb_check_matrices(params: BbParams) -> tuple[SparseBinMatrix, SparseBinMatrix]:
    """H_X = [A|B] and H_Z = [B^T|A^T], the transpose of [B; A], of a bivariate
    bicycle code; row i of A holds the A monomial permutations' images of i."""
    s = params.l * params.m
    a_rows, b_rows = ([{p[i] for p in perms} for i in range(s)]
                      for perms in bb_block_permutations(params))
    if any(len(row) != 3 for row in a_rows + b_rows):
        raise ValueError("monomials collide to the same permutation")
    hx = SparseBinMatrix(s, 2 * s, [[*ra, *(j + s for j in rb)] for ra, rb in zip(a_rows, b_rows)])
    return hx, SparseBinMatrix(2 * s, s, b_rows + a_rows).transpose()


def build_bb(params: BbParams) -> CssCode:
    """Bivariate bicycle code with H_X = [A|B], H_Z = [B^T|A^T], n = 2lm;
    monomials that leave no logical qubit (k = 0) are refused."""
    hx, hz = bb_check_matrices(params)
    n = hx.cols
    k = n - rank(hx) - rank(hz)
    if k == 0:
        a, b = (",".join(f"{base}{e}" for base, e in mono)
                for mono in (params.a_monomials, params.b_monomials))
        raise ValueError(f"bb:{params.l},{params.m} with A={a}, B={b} encodes no "
                         "logical qubit (k=0)")
    ox, oz = compute_logicals(hx, hz)
    code = CssCode(n=n, k=k, hx=hx, hz=hz, ox=ox, oz=oz,
                   label=f"bb-{n}-{k}-l{params.l}m{params.m}")
    code.validate()
    return code


def build_rotated_surface(d: int) -> CssCode:
    """Rotated surface code on a d x d lattice, parameters [[d^2, 1, d]].

    Qubit (r, c) is indexed r*d + c.  Faces (i, j) between lattice rows
    i, i+1 and columns j, j+1 host weight-4 checks; the checkerboard color
    (i + j even -> Z, odd -> X) extends to the boundary, where weight-2
    X checks sit on the top/bottom edges and weight-2 Z checks on the
    left/right edges.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError("d must be an odd integer >= 3")
    n = d * d

    def q(r: int, c: int) -> int:
        return r * d + c

    x_rows = []
    z_rows = []
    for i in range(d - 1):
        for j in range(d - 1):
            face = [q(i, j), q(i, j + 1), q(i + 1, j), q(i + 1, j + 1)]
            (z_rows if (i + j) % 2 == 0 else x_rows).append(face)
    for j in range(0, d - 1, 2):  # top X checks at even j
        x_rows.append([q(0, j), q(0, j + 1)])
    for j in range(1, d - 1, 2):  # bottom X checks at odd j
        x_rows.append([q(d - 1, j), q(d - 1, j + 1)])
    for i in range(1, d - 1, 2):  # left Z checks at odd i
        z_rows.append([q(i, 0), q(i + 1, 0)])
    for i in range(0, d - 1, 2):  # right Z checks at even i
        z_rows.append([q(i, d - 1), q(i + 1, d - 1)])

    hx = SparseBinMatrix(len(x_rows), n, x_rows)
    hz = SparseBinMatrix(len(z_rows), n, z_rows)
    k = n - rank(hx) - rank(hz)
    if k != 1:
        raise ValueError(f"surface construction gave k={k}, expected 1")
    ox, oz = compute_logicals(hx, hz)
    code = CssCode(n=n, k=k, hx=hx, hz=hz, ox=ox, oz=oz, label=f"surface-d{d}")
    code.validate()
    return code


def _nullspace_basis(m: SparseBinMatrix) -> list[int]:
    """Bitmask basis of {v : M v^T = 0} via back-substitution on the RREF."""
    pivots = PivotBasis(m.row_bits, full=True)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for f in free:
        v = 1 << f
        for c, row in pivots.items():
            if (row >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def compute_logicals(
    hx: SparseBinMatrix, hz: SparseBinMatrix
) -> tuple[SparseBinMatrix, SparseBinMatrix]:
    """Logical operator matrices (O_X, O_Z) for a CSS pair.

    O_Z rows span a complement of rowspace(H_Z) inside the nullspace of
    H_X (and symmetrically for O_X); the O_X basis is then adjusted so
    that O_X * O_Z^T is the identity.
    """
    if mat_mat_t(hz, hx).nnz != 0:
        raise ValueError("H_Z * H_X^T != 0")
    n = hx.cols
    k = n - rank(hx) - rank(hz)

    def pick(kernel_of: SparseBinMatrix, modulo: SparseBinMatrix) -> list[int]:
        chosen: list[int] = []
        span = PivotBasis(modulo.row_bits)
        for v in _nullspace_basis(kernel_of):
            if span.add(v):
                chosen.append(v)
                if len(chosen) == k:
                    break
        if len(chosen) != k:
            raise ValueError("could not find k independent logical representatives")
        return chosen

    oz_rows = pick(hx, hz)
    ox_rows = pick(hz, hx)
    oz = SparseBinMatrix(
        k, n, [[j for j in range(n) if (v >> j) & 1] for v in oz_rows]
    )
    ox = SparseBinMatrix(
        k, n, [[j for j in range(n) if (v >> j) & 1] for v in ox_rows]
    )
    # pair the bases: O_X <- G^{-1} O_X with G = O_X O_Z^T
    ginv = inverse(mat_mat_t(ox, oz))
    ox = mat_mat_t(ginv, ox.transpose())
    return ox, oz
