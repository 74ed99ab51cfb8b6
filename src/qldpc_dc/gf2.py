"""Sparse linear algebra over GF(2).

Vectors and matrices are stored by their nonzero positions.  A vector is
a Python integer bitmask; a matrix's rows and columns are mirrored as
bitmasks on first use, so products XOR columns and eliminations XOR rows
on machine words without dense scratch space.  All values are immutable
after construction and safe to share across threads or worker processes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np


class TripletFormatError(ValueError):
    """Raised when a matrix file does not follow the triplet format."""


def _bits_from_indices(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def _indices_from_bits(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def column_indices(indices: Iterable[int], cols: int) -> np.ndarray:
    """``indices``, an array or any iterable of ints, as an intp array,
    once each is checked to lie in ``[0, cols)``: numpy indexing would
    wrap a negative one."""
    if isinstance(indices, np.ndarray):
        indices = indices.astype(np.intp, copy=False)
    else:
        indices = np.fromiter(indices, dtype=np.intp)
    bad = indices[(indices < 0) | (indices >= cols)]
    if bad.size:
        raise ValueError(f"column index {bad[0]} out of range for {cols} columns")
    return indices


class BitVec:
    """Immutable binary row vector, stored as a bitmask plus its length."""

    __slots__ = ("length", "_bits")

    def __init__(self, length: int, bits: int = 0):
        if length < 0:
            raise ValueError("length must be nonnegative")
        if bits < 0 or bits >> length:
            raise ValueError("bit set outside vector range")
        self.length = length
        self._bits = bits

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVec":
        support = tuple(support)
        bits = _bits_from_indices(support)
        if len(support) != bits.bit_count():
            raise ValueError("duplicate indices in support")
        return cls(length, bits)

    @classmethod
    def from_dense(cls, arr) -> "BitVec":
        """The vector whose bit i is set where ``arr[i]`` is nonzero."""
        arr = np.asarray(arr)
        packed = np.packbits(arr.astype(bool, copy=False).ravel(), bitorder="little")
        return cls(len(arr), int.from_bytes(packed, "little"))

    @classmethod
    def zeros(cls, length: int) -> "BitVec":
        return cls(length, 0)

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def support(self) -> tuple[int, ...]:
        return _indices_from_bits(self._bits)

    def weight(self) -> int:
        return self._bits.bit_count()

    def to_dense(self) -> np.ndarray:
        """A new uint8 array of the bits, 0 or 1."""
        packed = np.frombuffer(self._bits.to_bytes(-(-self.length // 8), "little"), np.uint8)
        return np.unpackbits(packed, count=self.length, bitorder="little")

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise ValueError("length mismatch in xor")
        return BitVec(self.length, self._bits ^ other._bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self._bits >> i) & 1

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec)
            and self.length == other.length
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self.length, self._bits))

    def __repr__(self) -> str:
        return f"BitVec(length={self.length}, support={self.support})"


class SparseBinMatrix:
    """Immutable sparse binary matrix with row and column adjacency.

    The column supports are built with the rows, and both sets of bitmasks
    on first use: products read the columns, eliminations the rows.
    ``_graph`` holds the full ``bp.TannerGraph``, which the first
    ``bp.BpDecoder`` over this object builds and every later one reuses.
    """

    __slots__ = ("rows", "cols", "_row_supports", "_col_supports", "_row_bits", "_col_bits", "_csr",
                 "_graph")

    def __init__(self, rows: int, cols: int, row_supports: Sequence[Iterable[int]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        row_supports = [tuple(sorted(s)) for s in row_supports]
        if len(row_supports) != rows:
            raise ValueError("row count does not match row_supports")
        cols_acc: list[list[int]] = [[] for _ in range(cols)]
        for i, sup in enumerate(row_supports):
            prev = -1
            for j in sup:
                if not 0 <= j < cols:
                    raise ValueError(f"row {i}: column index {j} out of range")
                if j <= prev:
                    raise ValueError(f"row {i}: duplicate column index {j}")
                cols_acc[j].append(i)
                prev = j
        self.rows = rows
        self.cols = cols
        self._row_supports = tuple(row_supports)
        self._col_supports = tuple(tuple(c) for c in cols_acc)
        self._row_bits: Optional[tuple[int, ...]] = None
        self._col_bits: Optional[tuple[int, ...]] = None
        self._csr: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._graph = None

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]
    ) -> "SparseBinMatrix":
        """Build from (row, col) pairs; repeated entries cancel mod 2."""
        acc: dict[int, set[int]] = {}
        for i, j in entries:
            acc.setdefault(i, set()).symmetric_difference_update((j,))
        for i in acc:
            if not 0 <= i < rows:
                raise ValueError(f"entry row index {i} out of range for {rows} rows")
        return cls(rows, cols, [acc.get(i, ()) for i in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "SparseBinMatrix":
        return cls(n, n, [(i,) for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseBinMatrix":
        return cls(rows, cols, [()] * rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return sum(len(s) for s in self._row_supports)

    @property
    def row_supports(self) -> tuple[tuple[int, ...], ...]:
        return self._row_supports

    @property
    def col_supports(self) -> tuple[tuple[int, ...], ...]:
        return self._col_supports

    @property
    def row_bits(self) -> tuple[int, ...]:
        """Each row as a bitmask over columns, built on first use: only the
        eliminations read them."""
        if self._row_bits is None:
            self._row_bits = tuple(_bits_from_indices(r) for r in self._row_supports)
        return self._row_bits

    @property
    def col_bits(self) -> tuple[int, ...]:
        """Each column as a bitmask over rows, built on first use: products
        and ``solve`` read them."""
        if self._col_bits is None:
            self._col_bits = tuple(_bits_from_indices(c) for c in self._col_supports)
        return self._col_bits

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, cols)``, intp arrays built on first use: row i's
        support is ``cols[starts[i]:starts[i + 1]]``.  Tanner graphs and the
        DC cut read them."""
        if self._csr is None:
            sups = self._row_supports
            starts = np.array([0, *itertools.accumulate(map(len, sups))], dtype=np.intp)
            cols = np.fromiter(itertools.chain.from_iterable(sups), np.intp, count=starts[-1])
            self._csr = (starts, cols)
        return self._csr

    def row(self, i: int) -> tuple[int, ...]:
        return self._row_supports[i]

    def col(self, j: int) -> tuple[int, ...]:
        return self._col_supports[j]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, sup in enumerate(self._row_supports):
            out[i, list(sup)] = 1
        return out

    def transpose(self) -> "SparseBinMatrix":
        return SparseBinMatrix(self.cols, self.rows, self._col_supports)

    def without_columns(
        self, removed: Iterable[int]
    ) -> tuple["SparseBinMatrix", np.ndarray]:
        """Drop the given columns, any iterable of indices in ``[0, cols)``.

        Returns the reduced matrix and the intp array of kept original
        column indices (so solutions can be re-expanded to full width).
        """
        removed = column_indices(removed, self.cols)
        keep = np.ones(self.cols, dtype=bool)
        keep[removed] = False
        starts, cols = self.csr
        on = keep[cols]
        new_cols = (np.cumsum(keep) - 1)[cols[on]].tolist()
        bounds = np.concatenate(([0], np.cumsum(on)))[starts].tolist()
        sups = [new_cols[a:b] for a, b in zip(bounds, bounds[1:])]
        return SparseBinMatrix(self.rows, int(keep.sum()), sups), np.flatnonzero(keep)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseBinMatrix)
            and self.shape == other.shape
            and self._row_supports == other._row_supports
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._row_supports))

    def __repr__(self) -> str:
        return f"SparseBinMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _col_sum(col_bits: tuple[int, ...], support: Iterable[int]) -> int:
    """The XOR of the column bitmasks over ``support``: v * M^T for the
    vector v with that support, since v * M^T sums M's columns in it."""
    out = 0
    for j in support:
        out ^= col_bits[j]
    return out


def mat_vec_t(v: BitVec, m: SparseBinMatrix) -> BitVec:
    """Compute v * M^T, the parity of v against every row of M."""
    if v.length != m.cols:
        raise ValueError(f"vector length {v.length} != matrix cols {m.cols}")
    return BitVec(m.rows, _col_sum(m.col_bits, v.support))


def mat_mat_t(a: SparseBinMatrix, b: SparseBinMatrix) -> SparseBinMatrix:
    """Compute A * B^T over GF(2), one row of A at a time."""
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} != {b.cols}")
    col_bits = b.col_bits
    return SparseBinMatrix(
        a.rows, b.rows, [_indices_from_bits(_col_sum(col_bits, sup)) for sup in a.row_supports]
    )


class PivotBasis(dict):
    """Echelon basis of a GF(2) span, as {pivot column: bitmask row}.

    Rows go in in order; each is reduced against the basis so far and, if
    anything is left below ``width``, joins it with its lowest set bit as
    pivot.  Bits from ``width`` up are tags that ride along with the row
    operations but are never pivots: ``solve`` tags each column.  With
    ``full``, every basis row is then cleared in all other pivot columns,
    which makes the basis the span's unique reduced echelon form.
    """

    def __init__(self, rows: Iterable[int] = (), full: bool = False, width: float = float("inf")):
        super().__init__()
        self.width = width
        for bits in rows:
            self.add(bits)
        if full:
            cols = sorted(self)
            for c in cols:
                row = self[c]
                for c2 in cols:
                    if c2 != c and (row >> c2) & 1:
                        row ^= self[c2]
                self[c] = row

    def add(self, bits: int) -> bool:
        """Reduce a row against the basis and keep what is left; False when
        nothing is left below ``width``: the row's untagged part is in the span."""
        width = self.width
        while bits:
            col = (bits & -bits).bit_length() - 1
            if col >= width:
                return False
            if col not in self:
                self[col] = bits
                return True
            bits ^= self[col]
        return False


def rank(m: SparseBinMatrix) -> int:
    """GF(2) rank via bitmask row elimination."""
    return len(PivotBasis(m.row_bits))


def inverse(m: SparseBinMatrix) -> SparseBinMatrix:
    """Inverse of a square matrix, by full reduction of the rows of [M | I]."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    k = m.rows
    pivots = PivotBasis((bits | 1 << (k + i) for i, bits in enumerate(m.row_bits)), full=True)
    if sorted(pivots) != list(range(k)):
        raise ValueError("matrix is singular over GF(2)")
    return SparseBinMatrix(k, k, [_indices_from_bits(pivots[c] >> k) for c in range(k)])


def solve(
    m: SparseBinMatrix, s: BitVec, pivot_order: Sequence[int] | np.ndarray
) -> Optional[BitVec]:
    """Solve x * M^T = s with greedy pivoting in the given column order.

    Columns, read as bitmasks over rows, go into a ``PivotBasis`` in
    ``pivot_order``.  The k-th is tagged with bit ``rows + k``, as
    ``inverse`` tags the rows of [M | I], so a basis row's tags say which
    columns it is the sum of.  A column that reduces to zero below the
    rows depends on earlier ones and is no pivot.  The syndrome is kept
    reduced against the basis as it grows, and the search stops as soon as
    no row bit of it is left; its tags are then the solution.

    The pivot columns are the greedy independent set of columns in
    ``pivot_order``: a column is a pivot iff it is not in the span of the
    earlier ones.  That set depends on the order only, not on how rows are
    chosen during elimination, and the solution supported on it is unique,
    so stopping early changes nothing.  Returns None when the system is
    inconsistent.
    """
    if s.length != m.rows:
        raise ValueError(f"syndrome length {s.length} != matrix rows {m.rows}")
    order = np.asarray(pivot_order)
    if order.shape != (m.cols,) or not np.array_equal(np.sort(order), np.arange(m.cols)):
        raise ValueError("pivot_order must be a permutation of column indices")
    rows, col_bits = m.rows, m.col_bits
    row_mask = (1 << rows) - 1
    syn = s.bits
    basis = PivotBasis(width=rows)
    for k, col in enumerate(map(int, order)):  # converts only the columns it reaches
        if not syn & row_mask:
            break
        basis.add(col_bits[col] | 1 << (rows + k))
        while syn & row_mask:
            row = basis.get((syn & -syn).bit_length() - 1)
            if row is None:
                break
            syn ^= row
    if syn & row_mask:
        return None
    return BitVec.from_support(m.cols, order[list(_indices_from_bits(syn >> rows))].tolist())


def in_rowspace(v: BitVec, m: SparseBinMatrix) -> bool:
    """Test whether v lies in the row space of M."""
    if v.length != m.cols:
        raise ValueError(f"vector length {v.length} != matrix cols {m.cols}")
    return not PivotBasis(m.row_bits).add(v.bits)


def save_triplet(m: SparseBinMatrix, path) -> None:
    """Write a matrix in the text triplet format.

    First line is ``rows cols nnz``; each following line is one ``i j``
    pair for an entry equal to 1, zero-indexed.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{m.rows} {m.cols} {m.nnz}\n")
        for i, sup in enumerate(m.row_supports):
            for j in sup:
                f.write(f"{i} {j}\n")


def load_triplet(path) -> SparseBinMatrix:
    """Read a matrix written by :func:`save_triplet`.

    Raises TripletFormatError naming the offending line on malformed input.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise TripletFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise TripletFormatError(f"{path}: line 1: expected 'rows cols nnz'")
    try:
        rows, cols, nnz = (int(t) for t in head)
    except ValueError as exc:
        raise TripletFormatError(f"{path}: line 1: non-integer header") from exc
    if min(rows, cols, nnz) < 0:
        raise TripletFormatError(f"{path}: line 1: negative size")
    entries: set[tuple[int, int]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TripletFormatError(f"{path}: line {lineno}: expected 'i j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise TripletFormatError(
                f"{path}: line {lineno}: non-integer entry"
            ) from exc
        if not (0 <= i < rows and 0 <= j < cols):
            raise TripletFormatError(f"{path}: line {lineno}: index out of range")
        if (i, j) in entries:
            raise TripletFormatError(f"{path}: line {lineno}: repeated entry")
        entries.add((i, j))
    if len(entries) != nnz:
        raise TripletFormatError(
            f"{path}: header declares nnz={nnz} but file has {len(entries)} entries"
        )
    return SparseBinMatrix.from_entries(rows, cols, entries)
