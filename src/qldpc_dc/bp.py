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
iteration ``it``, else ``max_iter``.  Where gcc can build ``min_sum.c``,
``_run_compiled`` runs both variants in it; ``_run_numpy`` gives the same
bits on the check-major edges, and is the reference and the fallback
without gcc.  The compiled loops sum each variable's messages in
``np.add.reduceat``'s order, the first term plus numpy's ``pairwise_sum``
of the rest, which ``tests/test_bp.py`` pins.  They test the syndrome on
the totals the v2c update gathers, ``total <= 0``, which the hard bits
equal on entry; a test that passes in iteration ``it`` has written that
iteration's messages, but not its totals or hard bits.

A min-sum decode is one call, and its iteration has no data-dependent
branch.  Its check pass runs ``LANES`` (8) checks at once, one per SIMD
lane, on the slots of ``TannerGraph.min_sum_graph``; nothing crosses
lanes, so every message keeps its bits (``min_sum.c``'s header says
how).  Then a variable pass grouped by degree, one loop per degree 1 to
8, reads the slots.

A product-sum iteration is three calls on the graph's check-major edges
(no slots), with numpy's ``tanh`` and ``arctanh`` between them, in place
on one buffer: libm's need not round as numpy's do, and a test pins that
numpy's give the same bits in every layout.  The C takes each check's
product of tanh values in ``np.multiply.reduceat``'s order, first value
first, and then runs the variable pass that min-sum runs.  Both loops read one variable-major
view, which ``TannerGraph`` builds in the kernel's degree order; numpy
sums each variable's segment on its own, so the order of the segments
changes no bit.  ``exp`` stays in numpy for the same reason as ``tanh``.

Every pointer the kernel reads lies in the one ``_MinSumState`` that
``_Buffers`` builds with the buffers it points at; a graph holds only
numpy arrays.  A decoder builds its buffers once, on its first compiled
decode on its full graph; a decode with cut columns builds its own on
its masked graph.

The shared library is built with ``-O3 -march=native -ffp-contract=off
-DLANES=8`` on the first decode, not at import, into a per-user cache:
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
import operator
import os
import platform
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .gf2 import BitVec, SparseBinMatrix

LLR_CLAMP = 35.0
LANES = 8  # checks that min_sum.c's check pass runs at once, one per SIMD lane
_R_MAX = np.nextafter(1.0, 0.0)  # 2 * arctanh(_R_MAX) = 37.4 clips as arctanh(1) = inf did
_TOTAL_CLAMP = 350.0  # posterior LLR sums stay well inside exp() range
_TINY = np.finfo(float).tiny  # a prior at or above it has a finite (1 - p) / p

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

    A graph holds only numpy arrays and never changes once built.
    ``BpDecoder`` keeps a matrix's full graph on the matrix and shares it;
    a masked graph is built per decode and kept nowhere.  The graph holds the matrix's column count, not the
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
        # check-major segments (nonempty checks only); the bounds end at nnz
        self.chk_seg_ids = np.flatnonzero(counts)
        counts = counts[self.chk_seg_ids]
        self.nnz = len(edge_var)
        self.edge_var = edge_var
        self.chk_bounds = np.cumsum(np.concatenate(([0], counts)), dtype=np.intp)
        self.chk_seg_starts = self.chk_bounds[:-1]  # for reduceat
        self.edge_seg = np.repeat(np.arange(len(counts), dtype=np.intp), counts)

        # variable-major view (nonempty columns only) in the order min_sum.c
        # walks it: by degree, then by column, each with its edges in check
        # order; the variables of degree n end at var_group_ends[n - 1], n = 1..8
        deg = np.bincount(self.edge_var, minlength=h.cols)
        self.var_perm = np.argsort(deg[self.edge_var] * h.cols + self.edge_var, kind="stable")
        ids = np.flatnonzero(deg)
        self.var_seg_ids = ids[np.argsort(deg[ids], kind="stable")]
        seg_deg = deg[self.var_seg_ids]
        self.var_bounds = np.cumsum(np.concatenate(([0], seg_deg)), dtype=np.intp)
        self.var_seg_starts = self.var_bounds[:-1]
        self.var_group_ends = np.searchsorted(seg_deg, np.arange(1, 9), side="right")

    @functools.cached_property
    def min_sum_graph(self) -> "_SlotLayout":
        """The slot layout of ``min_sum.c``'s check pass, built once per
        graph on its first compiled min-sum decode.  A worker process
        forked after that inherits it with the graph, and a pickled copy of
        the graph carries it.

        The checks are sorted by degree (stably) and dealt, ``LANES`` at a
        time, into blocks; the last block of each degree is padded with
        lanes that run no check.  Edge i of the check in lane k of block b
        has slot ``blk_starts[b] + LANES * i + k``; ``edge_slot`` maps the
        check-major edges to their slots, and ``slot_perm`` is ``var_perm``
        in slots.  A padded slot reads column 0 and the syndrome bit of
        check segment 0, and no variable reads it; ``blk_used`` counts the
        lanes of each block that run a check, so the syndrome test leaves
        the padded ones out.
        """
        n_chk = len(self.chk_seg_ids)
        seg_deg = np.diff(self.chk_bounds)
        order = np.argsort(seg_deg, kind="stable")
        degrees, first, count = np.unique(seg_deg[order], return_index=True, return_counts=True)
        padded = -(-count // LANES) * LANES
        cls = np.repeat(np.arange(len(degrees)), count)
        # each sorted check's lane in the run of blocks, counted across padded blocks
        pos = (np.cumsum(padded) - padded)[cls] + np.arange(n_chk) - first[cls]
        blk_deg = np.repeat(degrees, padded // LANES)
        blk_starts = np.cumsum(np.concatenate(([0], blk_deg * LANES)), dtype=np.intp)
        base = np.empty(n_chk, dtype=np.intp)
        base[order] = blk_starts[pos // LANES] + pos % LANES
        rank = np.arange(self.nnz) - self.chk_seg_starts[self.edge_seg]  # edge i of its check
        edge_slot = base[self.edge_seg] + LANES * rank
        slot_var = np.zeros(blk_starts[-1], dtype=np.intp)
        slot_var[edge_slot] = self.edge_var
        blk_chk = np.zeros(len(blk_deg) * LANES, dtype=np.intp)
        blk_chk[pos] = order
        blk_used = np.bincount(pos // LANES, minlength=len(blk_deg))
        return _SlotLayout(blk_starts, blk_chk, slot_var, blk_used, edge_slot[self.var_perm],
                           edge_slot)


class _SlotLayout(NamedTuple):
    """``TannerGraph.min_sum_graph``: the blocks of ``LANES`` checks."""

    blk_starts: np.ndarray  # n_blk + 1 bounds, the last one the slot count
    blk_chk: np.ndarray
    slot_var: np.ndarray
    blk_used: np.ndarray
    slot_perm: np.ndarray
    edge_slot: np.ndarray


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
# + -march=native, see _library; LANES reaches the C, and the cache key, from here
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC", f"-DLANES={LANES}")
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


class _MinSumState(ctypes.Structure):
    """``struct min_sum_state`` of ``min_sum.c``: the sizes and arrays of a
    graph, then a decode's buffers and constants."""

    _fields_ = [(name, ctypes.c_ssize_t) for name in ("n_chk", "n_var", "n_blk")] + [
        (name, ctypes.c_void_p)
        for name in ("chk_bounds", "edge_var", "blk_starts", "blk_chk", "slot_var", "blk_used",
                     "var_bounds", "var_ids", "var_perm", "group_ends",
                     "syndrome", "lam", "hard", "total", "m_vc", "m_cv")
    ] + [(name, ctypes.c_double) for name in ("scale", "clamp", "total_clamp", "r_max")]


def _pointer(a: np.ndarray, n: int) -> int:
    """The address of ``a``'s data, once ``a`` is checked to be ``n``
    contiguous ``np.intp`` values."""
    if a.dtype != np.intp or a.shape != (n,) or not a.flags.c_contiguous:
        raise ValueError("the graph's arrays do not match its sizes")
    return a.ctypes.data


class _Kernel(NamedTuple):
    """The entry points of ``min_sum.c``.  The product-sum calls declare no
    argument types: ctypes then passes the ``byref`` of a ``_MinSumState``
    as its address, at less than half the cost of a checked call."""

    min_sum_decode: Callable
    product_sum_v2c: Callable
    product_sum_check: Callable
    product_sum_c2v: Callable


def _build_kernel() -> _Kernel | None:
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
                lib = ctypes.CDLL(str(_cached_library(directory, name, cflags)))
                kernel = _Kernel(*(getattr(lib, field) for field in _Kernel._fields))
            except _BuildError:
                break
            except (OSError, AttributeError):
                continue
            kernel.min_sum_decode.argtypes = [
                ctypes.POINTER(_MinSumState), ctypes.c_ssize_t, ctypes.c_int]
            kernel.min_sum_decode.restype = ctypes.c_ssize_t
            kernel.product_sum_check.restype = kernel.product_sum_c2v.restype = None
            return kernel
    return None


def _load_kernel() -> _Kernel | None:
    """The compiled iterations, built on first use; None when they cannot
    be built, and the numpy loop runs instead."""
    global _kernel
    if _kernel is _UNLOADED:
        _kernel = _build_kernel()
    return _kernel


def min_sum_kernel() -> str:
    """Which BP iteration this process runs, for both variants: ``"c"``,
    the compiled one, or ``"numpy"``."""
    return "numpy" if _load_kernel() is None else "c"


def _clip(x: np.ndarray, c: float, out: np.ndarray | None = None) -> np.ndarray:
    """``np.clip(x, -c, c)``, the same bytes, +-0.0 included, without the
    Python wrappers that cost more than the ufuncs on a small graph."""
    return np.minimum(np.maximum(x, -c), c, out=out)


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


class _Buffers:
    """One decoder's buffers on graph ``g``, and ``state``, the ``byref`` of
    the ``_MinSumState`` that points at them and at ``g``'s arrays: the
    slot layout for min-sum, the check-major edges (a message's slot is
    its edge) for product-sum.  ``graph`` keeps those arrays alive."""

    def __init__(self, g: TannerGraph, variant: str, scale: float):
        self.graph, cols, nnz = g, g.cols, g.nnz
        n_chk, n_var = len(g.chk_seg_ids), len(g.var_seg_ids)
        if variant == MIN_SUM:
            slots = g.min_sum_graph
            n_blk, n_slot, perm = len(slots.blk_used), len(slots.slot_var), slots.slot_perm
            blocks = (_pointer(slots.blk_starts, n_blk + 1), _pointer(slots.blk_chk, n_blk * LANES),
                      _pointer(slots.slot_var, n_slot), _pointer(slots.blk_used, n_blk))
        else:
            n_blk, n_slot, perm, blocks = 0, nnz, g.var_perm, (None,) * 4
        self.syn = np.empty(n_chk, dtype=np.uint8)
        self.lam, self.total = np.empty(cols), np.empty(cols)
        self.hard = np.empty(cols, dtype=bool)
        self.m_vc, self.m_cv = np.empty(n_slot), np.empty(n_slot)
        self.state = ctypes.byref(_MinSumState(
            n_chk, n_var, n_blk,
            _pointer(g.chk_bounds, n_chk + 1), _pointer(g.edge_var, nnz),
            *blocks,
            _pointer(g.var_bounds, n_var + 1), _pointer(g.var_seg_ids, n_var),
            _pointer(perm, nnz), _pointer(g.var_group_ends, 8),
            *(a.ctypes.data for a in (self.syn, self.lam, self.hard, self.total, self.m_vc,
                                      self.m_cv)),
            scale, LLR_CLAMP, _TOTAL_CLAMP, _R_MAX,
        ))


def _run_compiled(kernel: _Kernel, variant: str, buf: _Buffers, max_iter: int,
                  test: bool) -> int:
    """A decode in ``min_sum.c`` on the buffers ``buf`` built for ``variant``.

    Each iteration writes every slot of ``m_vc`` and ``m_cv``, and ``total``
    and ``hard`` at the columns with edges.  Starting from ``total = lam``,
    ``hard = total <= 0`` and ``m_cv = +0.0``, the first v2c update,
    ``clip(total - m_cv)``, gives the prior messages bit for bit.  Min-sum
    runs in one call.  Product-sum makes three calls per iteration, with
    numpy's ``tanh`` and ``arctanh`` on ``m_vc`` in place between them.
    Returns ``-it`` if ``test`` and the hard decision satisfied every check
    with edges before iteration ``it``, else ``max_iter``; in iteration
    ``it`` the messages are written then, and the totals are not.
    """
    state, m_vc = buf.state, buf.m_vc
    if variant == MIN_SUM:
        return kernel.min_sum_decode(state, max_iter, test)
    v2c, check, c2v = kernel.product_sum_v2c, kernel.product_sum_check, kernel.product_sum_c2v
    tanh, arctanh = np.tanh, np.arctanh
    for it in range(1, max_iter + 1):
        if v2c(state) and test:
            return -it
        tanh(m_vc, out=m_vc)
        check(state)
        arctanh(m_vc, out=m_vc)
        c2v(state)
    return max_iter


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


def _llr(priors: np.ndarray, extreme: bool = True, out: np.ndarray | None = None) -> np.ndarray:
    """The prior LLRs ``log((1 - p) / p)`` clipped to +-``LLR_CLAMP``, into
    ``out`` if given.  Only ``extreme`` priors, 0, 1 or below the smallest
    normal float, make the quotient or the log warn, so only they pay for
    ``np.errstate``."""
    if extreme:
        with np.errstate(divide="ignore", over="ignore"):
            lam = np.log((1.0 - priors) / priors)
    else:
        lam = np.log((1.0 - priors) / priors)
    return _clip(lam, LLR_CLAMP, out)


def check_max_iter(value) -> int:
    """``value`` as an int, if it is an integer in [1, ``sys.maxsize``], the
    largest ``ptrdiff_t``: ctypes would wrap a larger one at the kernel call."""
    try:
        max_iter = operator.index(value)
    except TypeError:
        raise ValueError(f"max_iter must be an integer, got {value!r}") from None
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if max_iter > sys.maxsize:
        raise ValueError(f"max_iter must be <= {sys.maxsize}, got {max_iter}")
    return max_iter


def check_min_sum_scale(value) -> float:
    """``value`` as a float, if it is a finite number > 0."""
    scale = float(value)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"min_sum_scale must be a finite number > 0, got {value}")
    return scale


class BpDecoder:
    """Reusable decoder holding the graph and, once it has run a compiled
    decode, its buffers for that graph.

    One instance must not be shared mid-decode; distinct instances over
    the same immutable matrix can run concurrently, each on its own
    buffers.  They share its full graph, whatever their variant or scale:
    the first decoder over a matrix object builds it and keeps it on the
    matrix, and it does not change once built.  Decoders built at once in
    several threads may each build an equal graph, and the matrix keeps
    the last; no lock guards this, so a forked worker can never inherit
    one held.  The buffers are built on the first compiled decode, not
    here, and a masked graph's per decode; a pickled copy builds its own.
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
        self._buffers = None  # the full graph's, once a compiled decode has run
        self.v2c_edge_updates = self.c2v_edge_updates = 0

    def __getstate__(self):
        # the kernel state's pointers are this process's
        return {**self.__dict__, "_buffers": None}

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
        max_iter = check_max_iter(max_iter)
        cut, extreme = None, False
        if priors.size:
            lowest, highest = priors.min(), priors.max()
            if not (lowest >= 0.0 and highest <= 1.0):
                raise ValueError("priors must lie in [0, 1]")
            if lowest == 0.0:
                cut = priors == 0.0
                g = TannerGraph(h, ~cut)
                priors = priors + 0.0  # -0.0 -> +0.0, whose LLR is +inf, not log(-inf)
            extreme = lowest < _TINY or highest == 1.0

        s_dense = syndrome.to_dense()
        kernel = _load_kernel()
        if kernel is None:
            syn, lam = s_dense[g.chk_seg_ids], _llr(priors, extreme)
            hard = lam <= 0.0  # a cut column's LLR clips to +35, so its bit is 0
        else:
            buf = self._buffers if cut is None else None
            if buf is None:
                buf = _Buffers(g, self.variant, self.min_sum_scale)
                if cut is None:
                    self._buffers = buf
            syn = np.take(s_dense, g.chk_seg_ids, out=buf.syn)
            lam, total, hard = _llr(priors, extreme, buf.lam), buf.total, buf.hard
            np.copyto(total, lam)
            np.less_equal(lam, 0.0, out=hard)
            buf.m_cv.fill(0.0)
        # a check with no edges and syndrome 1 is never satisfied
        satisfiable = bool(np.count_nonzero(s_dense) == np.count_nonzero(syn))
        test = early_stop and satisfiable
        if kernel is None:
            update = _min_sum_numpy if self.variant == MIN_SUM else _product_sum_numpy
            last, total, hard = _run_numpy(update, g, syn, lam, hard, self.min_sum_scale,
                                           max_iter, test)
        else:
            last = _run_compiled(kernel, self.variant, buf, max_iter, test)

        iterations = -last - 1 if last < 0 else last
        converged = last < 0 or (satisfiable and _segments_match(g, hard, syn))
        self.v2c_edge_updates = self.c2v_edge_updates = iterations * g.nnz
        soft = priors.copy() if last == -1 else 1.0 / (1.0 + np.exp(total))
        if cut is not None:
            soft[cut] = 0.0
        return BpOutput(soft, BitVec.from_dense(hard), converged, iterations)
