"""Belief propagation on a Tanner graph with a flooding schedule.

Messages live in the log-likelihood-ratio domain, LLR = log((1-p)/p),
clamped to +/-35 so no update can produce a non-finite value.  A prior of
0 removes the column from the graph for that decode: the decode runs on a
Tanner graph with no edges at those columns, and their soft output is
pinned to 0.  This is how degeneracy cutting masks nodes.

Removing the columns gives bit for bit what keeping them as masked edges
gave (a tanh factor of 1.0, a magnitude of +inf, no sign, a zeroed
output):

- Product-sum: a masked edge put a factor of exactly 1.0 into a check's
  sequential ``multiply.reduceat``, and x * 1.0 = x, so every partial
  product is the same without it.
- Min-sum: a masked magnitude of +inf was never the minimum of a check
  that still has an unmasked edge, and its sign was left out.  A check
  with a single unmasked edge got min2 = +inf either way, so its message
  is still clipped to +/-35.
- Variable update: a variable's edges are either all masked or all kept,
  so every ``add.reduceat`` segment of a kept variable, pairwise order
  included, is unchanged.
- Syndrome test: masked hard bits are 0, so the parity over kept edges is
  the same.

The hard decision is the sign of each posterior LLR, ``total <= 0``, for
the prior LLRs before the first iteration and for the totals after each
one.  The soft output ``1 / (1 + exp(total))`` is computed once, after the
loop; a decode that converges before its first iteration returns the
priors.  Where a total lies in (0, ~3.3e-16], numpy rounds that soft value
to 0.5 while the hard bit is 0.

``BpDecoder.decode`` is one driver for both variants: it runs one of two
loops and ends in one epilogue; it tests nothing before the loop.  Both
loops keep the contract of ``min_sum_decode`` in ``min_sum.c``: each
iteration tests the previous hard decision against the syndrome, then
writes the v2c messages, the check update, the posterior totals and the
hard bits, and the loop returns ``-it`` if that test passed before
iteration ``it``, else ``max_iter``.  ``_run_compiled`` runs a min-sum
decode in one call into the compiled C when gcc can build it; it sums
each variable's messages in ``np.add.reduceat``'s order, the first term
plus numpy's ``pairwise_sum`` of the rest, which ``tests/test_bp.py``
pins.  Its iteration has no data-dependent branch.  The check pass runs
``_lanes()`` (8) checks at once, one per SIMD lane: ``min_sum_graph``
sorts the checks by degree, deals them into blocks of 8 and lays the
messages out as slots ``blk_starts[b] + 8 * i + k`` (edge i of the check
in lane k), padding the last block of each degree with lanes whose slots
no variable reads.  Each lane runs its own check's edges in check-major
order with the scalar selects, one running pair of smallest magnitudes,
the sign parity and the sign-bit flip, and nothing crosses lanes, so
every message keeps its bits.  Then a variable pass grouped by degree,
one loop per degree 1 to 8, reads the slots.  ``_run_numpy`` gives the
same bits on the check-major edges: it is the reference,
the fallback without gcc and the product-sum path.  Both loops read one
variable-major view, which ``TannerGraph`` builds in the kernel's degree
order; numpy sums each variable's segment on its own, so the order of
the segments changes no bit.  ``exp`` and product-sum's
``tanh``/``arctanh`` stay in numpy: libm need not round as numpy does.

The shared library is built with ``-O3 -march=native -ffp-contract=off``
on the first min-sum decode, not at import, into a per-user cache:
``$XDG_CACHE_HOME/qldpc_dc`` (default ``~/.cache/qldpc_dc``), or a
per-user directory under the system temp directory if that cannot be
written.  Its name is keyed by the SHA-256 of the source, the compiler
and its flags, the machine type and the first ``flags``/``Features`` line
of ``/proc/cpuinfo``, so a library built for one CPU never loads on
another that shares the cache.  Where that line cannot be read, or the
native build fails, the library is built without ``-march=native``, under
its own name.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import os
import platform
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gf2 import BitVec, SparseBinMatrix

LLR_CLAMP = 35.0
_R_MAX = np.nextafter(1.0, 0.0)  # 2 * arctanh(_R_MAX) = 37.4 clips as arctanh(1) = inf did
_TOTAL_CLAMP = 350.0  # posterior LLR sums stay well inside exp() range

PRODUCT_SUM = "product-sum"
MIN_SUM = "min-sum"


class TannerGraph:
    """Edge-indexed view of a parity-check matrix.

    One edge per nonzero entry, stored check-major with columns ascending
    within a check; a stable permutation gives the variable-major view,
    grouped by degree.  With ``keep``, a boolean mask over columns, only
    kept columns get edges: the full graph's edges filtered by
    ``keep[edge_var]``.  Empty rows and empty columns take no part in
    message passing (an empty row with syndrome 1 simply never converges).

    A graph never changes once built.  ``BpDecoder`` keeps a matrix's full
    graph on the matrix and shares it; a masked graph is built per decode
    and kept nowhere.  The graph holds the matrix's column count, not the
    matrix, so the two never form a reference cycle.
    """

    def __init__(self, h: SparseBinMatrix, keep: np.ndarray | None = None):
        self.cols = h.cols
        starts, edge_var = h.csr
        if keep is None:
            counts = np.diff(starts)
        else:
            kept = np.asarray(keep, dtype=bool)[edge_var]
            edge_var = edge_var[kept]
            run = np.concatenate(([0], np.cumsum(kept)))
            counts = run[starts[1:]] - run[starts[:-1]]
        # check-major segments (nonempty checks only)
        self.chk_seg_ids = np.flatnonzero(counts)
        counts = counts[self.chk_seg_ids]
        self.nnz = len(edge_var)
        self.edge_var = edge_var
        self.chk_seg_starts = np.cumsum(counts) - counts
        self.edge_seg = np.repeat(np.arange(len(counts), dtype=np.intp), counts)

        # variable-major view (nonempty columns only) in the order min_sum.c
        # walks it: by degree, then by column, each with its edges in check
        # order; the variables of degree n end at var_group_ends[n - 1], n = 1..8
        deg = np.bincount(self.edge_var, minlength=h.cols)
        self.var_perm = np.argsort(deg[self.edge_var] * h.cols + self.edge_var, kind="stable")
        ids = np.flatnonzero(deg)
        self.var_seg_ids = ids[np.argsort(deg[ids], kind="stable")]
        seg_deg = deg[self.var_seg_ids]
        self.var_seg_starts = np.cumsum(seg_deg) - seg_deg
        self.var_group_ends = np.searchsorted(seg_deg, np.arange(1, 9), side="right")

    @functools.cached_property
    def min_sum_graph(self) -> "_MinSumGraph":
        """What ``min_sum.c`` reads, built once per graph on its first
        compiled decode: sizes, pointers and the slot layout of the check
        pass.  A worker process forked after that inherits it with the
        graph; a pickled copy of the graph builds its own.

        The checks are sorted by degree (stably) and dealt, ``_lanes()`` at
        a time, into blocks; the last block of each degree is padded with
        lanes that run no check.  Edge i of the check in lane k of block b
        has slot ``blk_starts[b] + lanes * i + k``; ``edge_slot`` maps the
        check-major edges to their slots, ``n_slot`` counts the slots, and
        the kernel's ``var_perm`` lists slots.  A padded slot reads column
        0 and the syndrome bit of check segment 0, and no variable reads it.
        """
        lanes, nnz = _lanes(), self.nnz
        n_chk, n_var = len(self.chk_seg_starts), len(self.var_seg_starts)
        seg_deg = np.diff(self.chk_seg_starts, append=nnz)
        order = np.argsort(seg_deg, kind="stable")
        degrees, first, count = np.unique(seg_deg[order], return_index=True, return_counts=True)
        padded = -(-count // lanes) * lanes
        cls = np.repeat(np.arange(len(degrees)), count)
        # each sorted check's lane in the run of blocks, counted across padded blocks
        pos = (np.cumsum(padded) - padded)[cls] + np.arange(n_chk) - first[cls]
        blk_deg = np.repeat(degrees, padded // lanes)
        blk_starts = np.concatenate(([0], np.cumsum(blk_deg * lanes))).astype(np.intp)
        base = np.empty(n_chk, dtype=np.intp)
        base[order] = blk_starts[pos // lanes] + pos % lanes
        edge_slot = base[self.edge_seg] + lanes * (np.arange(nnz) - self.chk_seg_starts[self.edge_seg])
        n_slot, n_blk = int(blk_starts[-1]), len(blk_deg)
        slot_var = np.zeros(n_slot, dtype=np.intp)
        slot_var[edge_slot] = self.edge_var
        blk_chk = np.zeros(n_blk * lanes, dtype=np.intp)
        blk_chk[pos] = order
        slot_perm = edge_slot[self.var_perm]
        graph = _MinSumGraph(
            nnz, n_chk, n_var, n_blk,
            _pointer(self.chk_seg_starts, np.intp, n_chk), _pointer(self.edge_var, np.intp, nnz),
            _pointer(blk_starts, np.intp, n_blk + 1), _pointer(blk_chk, np.intp, n_blk * lanes),
            _pointer(slot_var, np.intp, n_slot),
            _pointer(self.var_seg_starts, np.intp, n_var),
            _pointer(self.var_seg_ids, np.intp, n_var),
            _pointer(slot_perm, np.intp, nnz), _pointer(self.var_group_ends, np.intp, 8),
        )
        graph.edge_slot, graph.n_slot = edge_slot, n_slot
        graph.arrays = (blk_starts, blk_chk, slot_var, slot_perm)  # alive as long as the pointers
        return graph

    def __getstate__(self):
        # the kernel's pointers are this process's; a copy takes its own
        return {k: v for k, v in self.__dict__.items() if k != "min_sum_graph"}


@dataclass
class BpOutput:
    """Soft marginals ``1 / (1 + exp(total))``, the hard decision
    ``total <= 0`` (the sign of the posterior LLR; a total of 0 says 1),
    and termination info."""

    soft: np.ndarray
    hard: BitVec
    converged: bool
    iterations_used: int


_KERNEL_SOURCE = Path(__file__).with_name("min_sum.c")
_CC = "gcc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")  # + -march=native, see _library
_UNLOADED = object()
_kernel = _UNLOADED  # the compiled iteration once tried; None if it failed


def _cache_dirs() -> list[Path]:
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = xdg if os.path.isabs(xdg) else os.path.expanduser("~/.cache")
    private = Path(tempfile.gettempdir()) / f"qldpc_dc-{os.getuid()}"
    # expanduser leaves "~" in place when there is no home directory
    return [Path(base) / "qldpc_dc", private] if os.path.isabs(base) else [private]


class _BuildError(Exception):
    """The compiler cannot build the source with these flags, in any directory."""


def _cached_library(directory: Path, name: str, cflags: tuple[str, ...]) -> Path:
    """``directory/name``, compiled first if it is not there yet.

    The compiler writes a temporary file that is renamed into place, so
    processes building the same library at once never see a partial one.
    Raises ``_BuildError`` when the compiler is missing or fails, and
    ``OSError`` when the directory cannot hold the library.
    """
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = directory.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{directory} is not private to this user")
    path = directory / name
    if not path.exists():
        import subprocess  # on a cache miss only: the import adds ~0.6 MB of RSS

        fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=directory)
        os.close(fd)
        try:
            subprocess.run(
                [_CC, *cflags, "-o", tmp, str(_KERNEL_SOURCE)],
                check=True, capture_output=True, timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _BuildError(f"{_CC} could not build {_KERNEL_SOURCE.name}") from exc
        else:
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return path


def _sha256_hex(data: bytes) -> str:
    """SHA-256 from CPython's built-in module where there is one: hashlib
    loads OpenSSL, which adds ~3.4 MB to the RSS of every decoding process."""
    for module in ("_sha2", "_sha256", "hashlib"):
        with contextlib.suppress(ImportError):
            return importlib.import_module(module).sha256(data).hexdigest()


def _cpu_flags() -> str:
    """The first ``flags`` (x86) or ``Features`` (Arm) line of
    /proc/cpuinfo, or "" where there is none to read."""
    with contextlib.suppress(OSError, UnicodeDecodeError):
        with open("/proc/cpuinfo", encoding="ascii") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    return ""


def _library(source: bytes, native: bool = True) -> tuple[str, tuple[str, ...]]:
    """The cached library's file name and the flags that build it.

    ``-march=native`` ties the library to the CPU that built it, so the
    name hashes the CPU's flags line with the source, the compiler and its
    flags; without that line, or without ``native``, the library is built
    for the generic target.
    """
    cpu = _cpu_flags() if native else ""
    cflags = _CFLAGS + (("-march=native",) if cpu else ())
    key = _sha256_hex(source + repr((_CC, cflags, platform.machine(), cpu)).encode())
    return f"min_sum_{key[:16]}.so", cflags


class _MinSumGraph(ctypes.Structure):
    """``struct min_sum_graph`` of ``min_sum.c``: sizes, then pointers."""

    _fields_ = [(name, ctypes.c_ssize_t) for name in ("nnz", "n_chk", "n_var", "n_blk")] + [
        (name, ctypes.c_void_p)
        for name in ("chk_starts", "edge_var", "blk_starts", "blk_chk", "slot_var",
                     "var_starts", "var_ids", "var_perm", "group_ends")
    ]


@functools.cache
def _lanes() -> int:
    """``LANES`` of ``min_sum.c``: the checks its check pass runs at once."""
    source = _KERNEL_SOURCE.read_text(encoding="ascii")
    return int(re.search(r"^#define LANES (\d+)", source, re.MULTILINE).group(1))


class _MinSumState(ctypes.Structure):
    """``struct min_sum_state`` of ``min_sum.c``: one decode's buffers."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in ("graph", "syndrome", "lam", "hard", "total", "m_vc", "m_cv")
    ] + [(name, ctypes.c_double) for name in ("scale", "clamp", "total_clamp")]


def _pointer(a: np.ndarray, dtype, n: int) -> int:
    """The address of ``a``'s data, once ``a`` is checked to be ``n``
    contiguous values of ``dtype``."""
    if a.dtype != dtype or a.shape != (n,) or not a.flags.c_contiguous:
        raise ValueError("min-sum kernel buffers do not match the graph")
    return a.ctypes.data


def _build_kernel():
    """Compile (or find in the cache) and load ``min_sum.c``, built for this
    CPU or, if that fails, for the generic target; None if both fail and on
    systems that are not POSIX.  A failed compiler run moves on to the next
    build at once; only a directory that cannot hold or load the library
    moves on to the next cache directory."""
    if os.name != "posix":
        return None
    try:
        source = _KERNEL_SOURCE.read_bytes()
    except OSError:
        return None
    builds = [_library(source)]
    if "-march=native" in builds[0][1]:
        builds.append(_library(source, native=False))  # if the native build fails
    for name, cflags in builds:
        for directory in _cache_dirs():
            try:
                fn = ctypes.CDLL(str(_cached_library(directory, name, cflags))).min_sum_decode
            except _BuildError:
                break
            except (OSError, AttributeError):
                continue
            fn.argtypes = [ctypes.POINTER(_MinSumState), ctypes.c_ssize_t, ctypes.c_int]
            fn.restype = ctypes.c_ssize_t
            return fn
    return None


def _load_kernel():
    """The compiled min-sum iteration, built on first use; None when it
    cannot be built, and the numpy loop runs instead."""
    global _kernel
    if _kernel is _UNLOADED:
        _kernel = _build_kernel()
    return _kernel


def min_sum_kernel() -> str:
    """Which min-sum iteration this process runs: ``"c"`` or ``"numpy"``."""
    return "numpy" if _load_kernel() is None else "c"


def _clip(x: np.ndarray, c: float) -> np.ndarray:
    """``np.clip(x, -c, c)``, the same bytes, +-0.0 included, without the
    Python wrappers that cost more than the ufuncs on a small graph."""
    return np.minimum(np.maximum(x, -c), c)


def _min_sum_numpy(g: TannerGraph, m_vc, syn_sign_e, scale: float) -> np.ndarray:
    """Normalized min-sum check update in numpy: the reference for the C kernel."""
    mag = np.abs(m_vc)
    neg = m_vc < 0
    min1 = np.minimum.reduceat(mag, g.chk_seg_starts)
    is_min = mag == min1[g.edge_seg]
    cmin = np.add.reduceat(is_min.astype(np.int64), g.chk_seg_starts)
    mag2 = np.where(is_min, np.inf, mag)
    min2 = np.minimum.reduceat(mag2, g.chk_seg_starts)
    # a check's only edge gets min2 = +inf, which the clip turns into 35
    min_excl = np.where(
        is_min & (cmin[g.edge_seg] == 1), min2[g.edge_seg], min1[g.edge_seg]
    )
    negc = np.add.reduceat(neg.astype(np.int64), g.chk_seg_starts)
    par = (negc[g.edge_seg] - neg.astype(np.int64)) & 1
    sign = np.where(par == 1, -1.0, 1.0)
    # a huge scale may overflow to +-inf; the clip gives the same +-35 as the kernel
    with np.errstate(over="ignore"):
        m_cv = syn_sign_e * sign * scale * min_excl
    return _clip(m_cv, LLR_CLAMP)


def _product_sum_numpy(g: TannerGraph, m_vc, syn_sign_e, scale: float) -> np.ndarray:
    """Product-sum check update in numpy; ``scale`` is min-sum's and unused."""
    t = np.tanh(0.5 * m_vc)
    zero = t == 0.0
    tn = np.where(zero, 1.0, t)
    prod = np.multiply.reduceat(tn, g.chk_seg_starts)
    zcnt = np.add.reduceat(zero.astype(np.int64), g.chk_seg_starts)
    prod_e = prod[g.edge_seg]
    zcnt_e = zcnt[g.edge_seg]
    # extrinsic product: divide out own tanh unless zeros make it exact
    r = np.where(
        zcnt_e == 0,
        prod_e / tn,
        np.where(zero & (zcnt_e == 1), prod_e, 0.0),
    )
    m_cv = 2.0 * np.arctanh(_clip(r * syn_sign_e, _R_MAX))
    return _clip(m_cv, LLR_CLAMP)


def _segments_match(g: TannerGraph, hard: np.ndarray, syn: np.ndarray) -> bool:
    """True when the parity of the hard bits (bool) over each check with
    edges is that check's syndrome bit in ``syn`` (uint8, one per check
    segment); checks without edges are not tested."""
    parity = np.bitwise_xor.reduceat(hard.view(np.uint8)[g.edge_var], g.chk_seg_starts)
    return parity.tobytes() == syn.tobytes()


def _run_compiled(kernel, g: TannerGraph, syn, lam, hard, total, m_vc, m_cv, scale: float,
                  max_iter: int, test: bool) -> int:
    """``min_sum_decode`` of ``min_sum.c`` on the caller's buffers.

    ``syn`` holds one bit per check segment; ``m_vc`` and ``m_cv`` hold one
    message per slot of ``g.min_sum_graph`` (its ``edge_slot`` maps the
    check-major edges to slots).  Each iteration writes every slot of
    ``m_vc`` and ``m_cv``, and ``total`` and ``hard`` at the columns with
    edges.  Starting from ``total = lam`` and ``m_cv = +0.0``, the first
    v2c update, ``clip(total - m_cv)``, gives the prior messages bit for
    bit.  Returns ``-it`` if ``test`` and the hard decision satisfied every
    check with edges before iteration ``it``, else ``max_iter``.
    """
    cols, graph = g.cols, g.min_sum_graph
    state = _MinSumState(
        ctypes.addressof(graph), _pointer(syn, np.uint8, len(g.chk_seg_starts)),
        _pointer(lam, np.float64, cols), _pointer(hard, np.bool_, cols),
        _pointer(total, np.float64, cols), _pointer(m_vc, np.float64, graph.n_slot),
        _pointer(m_cv, np.float64, graph.n_slot), scale, LLR_CLAMP, _TOTAL_CLAMP,
    )
    return kernel(ctypes.byref(state), max_iter, test)


def _run_numpy(check_update, g: TannerGraph, syn, lam, hard, scale: float, max_iter: int,
               test: bool):
    """``min_sum_decode`` in numpy, with ``check_update`` as the check
    update: its value, then the final totals and hard bits."""
    syn_sign_e = 1.0 - 2.0 * syn[g.edge_seg]
    total, m_cv = lam, np.zeros(g.nnz)
    for it in range(1, max_iter + 1):
        if test and _segments_match(g, hard, syn):
            return -it, total, hard
        m_vc = _clip(total[g.edge_var] - m_cv, LLR_CLAMP)
        m_cv = check_update(g, m_vc, syn_sign_e, scale)
        total = lam.copy()
        total[g.var_seg_ids] += np.add.reduceat(m_cv[g.var_perm], g.var_seg_starts)
        total = _clip(total, _TOTAL_CLAMP)
        hard = total <= 0.0
    return max_iter, total, hard


def _llr(priors: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore"):
        lam = np.log((1.0 - priors) / priors)
    return _clip(lam, LLR_CLAMP)


def check_min_sum_scale(value) -> float:
    """``value`` as a float, if it is a finite number > 0."""
    scale = float(value)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"min_sum_scale must be a finite number > 0, got {value}")
    return scale


class BpDecoder:
    """Reusable decoder holding the graph; message buffers are per decode.

    One instance must not be shared mid-decode; distinct instances over
    the same immutable matrix can run concurrently.  They share its full
    graph, whatever their variant or scale: the first decoder over a
    matrix object builds it and keeps it on the matrix, and it does not
    change once built.  Decoders built at once in several threads may
    each build an equal graph, and the matrix keeps the last; no lock
    guards this, so a forked worker can never inherit one held.
    ``v2c_edge_updates`` and ``c2v_edge_updates`` count the last decode's
    edge updates in each direction: its iterations times the edges of the
    graph it ran on.
    """

    def __init__(
        self,
        h: SparseBinMatrix,
        variant: str = PRODUCT_SUM,
        min_sum_scale: float = 0.625,
    ):
        if variant not in (PRODUCT_SUM, MIN_SUM):
            raise ValueError(f"unknown BP variant {variant!r}")
        self.h = h
        self.variant = variant
        self.min_sum_scale = check_min_sum_scale(min_sum_scale)
        if h._graph is None:
            h._graph = TannerGraph(h)
        self.graph = h._graph
        self.v2c_edge_updates = self.c2v_edge_updates = 0

    def decode(
        self,
        syndrome: BitVec,
        priors,
        max_iter: int,
        early_stop: bool = True,
    ) -> BpOutput:
        h, g = self.h, self.graph
        if syndrome.length != h.rows:
            raise ValueError(f"syndrome length {syndrome.length} != rows {h.rows}")
        priors = np.asarray(priors, dtype=float)
        if priors.shape != (h.cols,):
            raise ValueError(f"priors length {priors.shape} != cols {h.cols}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        cut = None
        if priors.size:
            lowest = priors.min()
            if not (lowest >= 0.0 and priors.max() <= 1.0):
                raise ValueError("priors must lie in [0, 1]")
            if lowest == 0.0:
                cut = priors == 0.0
                g = TannerGraph(h, ~cut)
                priors = priors + 0.0  # -0.0 -> +0.0, whose LLR is +inf, not log(-inf)

        s_dense = syndrome.to_dense()
        syn = s_dense[g.chk_seg_ids]
        # a check with no edges and syndrome 1 is never satisfied
        satisfiable = bool(np.count_nonzero(s_dense) == np.count_nonzero(syn))
        test = early_stop and satisfiable
        lam = _llr(priors)
        hard = lam <= 0.0  # a cut column's LLR clips to +35, so its bit is 0
        kernel = _load_kernel() if self.variant == MIN_SUM else None
        if kernel is not None:
            total, slots = lam.copy(), g.min_sum_graph.n_slot
            last = _run_compiled(kernel, g, syn, lam, hard, total, np.empty(slots),
                                 np.zeros(slots), self.min_sum_scale, max_iter, test)
        else:
            update = _min_sum_numpy if self.variant == MIN_SUM else _product_sum_numpy
            last, total, hard = _run_numpy(update, g, syn, lam, hard, self.min_sum_scale,
                                           max_iter, test)

        iterations = -last - 1 if last < 0 else last
        converged = last < 0 or (satisfiable and _segments_match(g, hard, syn))
        self.v2c_edge_updates = self.c2v_edge_updates = iterations * g.nnz
        soft = priors.copy() if last == -1 else 1.0 / (1.0 + np.exp(total))
        if cut is not None:
            soft[cut] = 0.0
        return BpOutput(soft, BitVec.from_dense(hard), converged, iterations)
