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

A min-sum decode runs its whole iteration loop in one call into compiled
C (``min_sum.c``) when gcc can build it, and in numpy otherwise.  Both give
the same bits.  Each iteration of the kernel tests the previous hard
decision against the syndrome, then writes the v2c messages, the check
update, the posterior totals and the hard bits: subtractions, clips, min,
abs, a sign parity, a product whose two factors of +-1 only set its sign
and, for each variable, a sum in ``np.add.reduceat``'s own order.  That
order is the first term plus numpy's ``pairwise_sum`` of the rest (a probe
on numpy 2.4.6 matched it on every random segment of lengths 1-40,
127-137, 200-300 and 1000, and ``tests/test_bp.py`` pins it).  ``exp`` and
product-sum's ``tanh``/``arctanh`` stay in numpy: libm need not round as
numpy does.  The numpy loop is the reference, the fallback without gcc and
the product-sum path.

The shared library is built with ``-O3 -march=native -ffp-contract=off``
on the first min-sum decode, not at import, into a per-user cache:
``$XDG_CACHE_HOME/qldpc_dc`` (default ``~/.cache/qldpc_dc``), or a
per-user directory under the system temp directory if that cannot be
written.  Its name is keyed by the SHA-256 of the source, the compiler
and its flags, the machine type and the first ``flags``/``Features`` line
of ``/proc/cpuinfo``, so a library built for one CPU never loads on
another that shares the cache.  Where that line cannot be read, the
library is built without ``-march=native``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import os
import platform
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gf2 import BitVec, SparseBinMatrix

LLR_CLAMP = 35.0
_TOTAL_CLAMP = 350.0  # posterior LLR sums stay well inside exp() range

PRODUCT_SUM = "product-sum"
MIN_SUM = "min-sum"


class TannerGraph:
    """Edge-indexed view of a parity-check matrix.

    One edge per nonzero entry, stored check-major with columns ascending
    within a check; a stable permutation gives the variable-major view.
    With ``keep``, a boolean mask over columns, only kept columns get
    edges.  Empty rows and empty columns take no part in message passing
    (an empty row with syndrome 1 simply never converges).
    """

    def __init__(self, h: SparseBinMatrix, keep: np.ndarray | None = None):
        self.h = h
        kept = keep.tolist() if keep is not None else None
        edge_var = []
        edge_chk = []
        seg_starts = []
        seg_chk = []
        counts = []
        for i, sup in enumerate(h.row_supports):
            if kept is not None:
                sup = [j for j in sup if kept[j]]
            if sup:
                # check-major segments (nonempty checks only)
                seg_starts.append(len(edge_var))
                seg_chk.append(i)
                counts.append(len(sup))
                edge_var.extend(sup)
                edge_chk.extend([i] * len(sup))
        self.nnz = len(edge_var)
        self.edge_var = np.asarray(edge_var, dtype=np.intp)
        self.edge_chk = np.asarray(edge_chk, dtype=np.intp)
        self.chk_seg_starts = np.asarray(seg_starts, dtype=np.intp)
        self.chk_seg_ids = np.asarray(seg_chk, dtype=np.intp)
        self.edge_seg = np.repeat(np.arange(len(seg_chk), dtype=np.intp), counts)

        # variable-major permutation and segments (nonempty columns only)
        self.var_perm = np.argsort(self.edge_var, kind="stable")
        sorted_vars = self.edge_var[self.var_perm]
        vstarts = []
        vids = []
        if self.nnz:
            boundary = np.flatnonzero(
                np.concatenate(([True], sorted_vars[1:] != sorted_vars[:-1]))
            )
            vstarts = boundary
            vids = sorted_vars[boundary]
        self.var_seg_starts = np.asarray(vstarts, dtype=np.intp)
        self.var_seg_ids = np.asarray(vids, dtype=np.intp)

    @functools.cached_property
    def min_sum_graph(self) -> "_MinSumGraph":
        """The sizes and index pointers ``min_sum.c`` reads, taken once per
        graph; the arrays they point into live as long as the graph."""
        nnz, n_chk, n_var = self.nnz, len(self.chk_seg_starts), len(self.var_seg_starts)
        return _MinSumGraph(
            nnz, n_chk, n_var,
            _pointer(self.chk_seg_starts, np.intp, n_chk), _pointer(self.edge_var, np.intp, nnz),
            _pointer(self.var_seg_starts, np.intp, n_var),
            _pointer(self.var_seg_ids, np.intp, n_var), _pointer(self.var_perm, np.intp, nnz),
        )

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


def _cached_library(directory: Path, name: str, cflags: tuple[str, ...]) -> Path:
    """``directory/name``, compiled first if it is not there yet.

    The compiler writes a temporary file that is renamed into place, so
    processes building the same library at once never see a partial one.
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
            os.replace(tmp, path)
        except subprocess.SubprocessError as exc:
            raise OSError(f"{_CC} could not build {_KERNEL_SOURCE.name}") from exc
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


def _library(source: bytes) -> tuple[str, tuple[str, ...]]:
    """The cached library's file name and the flags that build it.

    ``-march=native`` ties the library to the CPU that built it, so the
    name hashes the CPU's flags line with the source, the compiler and its
    flags; without that line the library is built for the generic target.
    """
    cpu = _cpu_flags()
    cflags = _CFLAGS + (("-march=native",) if cpu else ())
    key = _sha256_hex(source + repr((_CC, cflags, platform.machine(), cpu)).encode())
    return f"min_sum_{key[:16]}.so", cflags


class _MinSumGraph(ctypes.Structure):
    """``struct min_sum_graph`` of ``min_sum.c``: sizes, then pointers."""

    _fields_ = [(name, ctypes.c_ssize_t) for name in ("nnz", "n_chk", "n_var")] + [
        (name, ctypes.c_void_p)
        for name in ("chk_starts", "edge_var", "var_starts", "var_ids", "var_perm")
    ]


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
    """Compile (or find in the cache) and load ``min_sum.c``; None on failure
    and on systems that are not POSIX."""
    if os.name != "posix":
        return None
    try:
        source = _KERNEL_SOURCE.read_bytes()
    except OSError:
        return None
    name, cflags = _library(source)
    for directory in _cache_dirs():
        try:
            fn = ctypes.CDLL(str(_cached_library(directory, name, cflags))).min_sum_decode
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
    return np.clip(m_cv, -LLR_CLAMP, LLR_CLAMP)


class _CompiledMinSum:
    """The buffers of one decode and the kernel that iterates on them.

    ``total`` starts as the prior LLRs and ``m_cv`` as +0.0, so the first
    v2c update, ``clip(total - m_cv)``, gives the prior messages bit for
    bit.  ``syndrome`` holds one bit per check segment; ``hard`` is the
    caller's array, which the syndrome test reads and each iteration
    writes at the columns with edges.
    """

    def __init__(self, kernel, g: TannerGraph, syndrome, lam, hard, scale: float):
        cols = g.h.cols
        self.total = lam.copy()
        self.m_vc = np.empty(g.nnz)
        self.m_cv = np.zeros(g.nnz)
        self._state = _MinSumState(
            ctypes.addressof(g.min_sum_graph),
            _pointer(syndrome, np.uint8, len(g.chk_seg_starts)),
            _pointer(lam, np.float64, cols), _pointer(hard, np.bool_, cols),
            self.total.ctypes.data, self.m_vc.ctypes.data, self.m_cv.ctypes.data,
            scale, LLR_CLAMP, _TOTAL_CLAMP,
        )
        self._ref = ctypes.byref(self._state)
        self._kernel = kernel
        self._keep = (g, syndrome, lam, hard)  # the arrays the pointers point into

    def run(self, max_iter: int, test: bool) -> int:
        """Iterations 1 to at most ``max_iter``: ``-it`` if ``test`` and the
        hard decision satisfied every check with edges before iteration
        ``it``, else ``max_iter`` (see ``min_sum_decode``)."""
        return self._kernel(self._ref, max_iter, test)


def _soft(total: np.ndarray, cut) -> np.ndarray:
    """``1 / (1 + exp(total))``, 0 at the ``cut`` columns."""
    soft = 1.0 / (1.0 + np.exp(total))
    if cut is not None:
        soft[cut] = 0.0
    return soft


def _llr(priors: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore"):
        lam = np.log((1.0 - priors) / priors)
    return np.clip(lam, -LLR_CLAMP, LLR_CLAMP)


class BpDecoder:
    """Reusable decoder holding the graph; message buffers are per decode.

    One instance must not be shared mid-decode; distinct instances over
    the same immutable matrix can run concurrently.
    """

    def __init__(
        self,
        h: SparseBinMatrix,
        variant: str = PRODUCT_SUM,
        min_sum_scale: float = 0.625,
    ):
        if variant not in (PRODUCT_SUM, MIN_SUM):
            raise ValueError(f"unknown BP variant {variant!r}")
        scale = float(min_sum_scale)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"min_sum_scale must be a finite number > 0, got {min_sum_scale}")
        self.h = h
        self.variant = variant
        self.min_sum_scale = scale
        self.graph = TannerGraph(h)
        # edge-visit counters for cost instrumentation
        self.v2c_edge_updates = 0
        self.c2v_edge_updates = 0

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
        self.v2c_edge_updates = 0
        self.c2v_edge_updates = 0

        s_dense = syndrome.to_dense()
        lam_prior = _llr(priors)
        hard = lam_prior <= 0.0  # a cut column's LLR clips to +35, so its bit is 0
        if early_stop and self._syndrome_matches(g, hard, s_dense):
            soft = priors.copy()
            if cut is not None:
                soft[cut] = 0.0  # +0.0 for a prior of -0.0
            return BpOutput(soft, BitVec.from_dense(hard), True, 0)
        kernel = _load_kernel() if self.variant == MIN_SUM else None
        if kernel is not None:
            return self._decode_compiled(kernel, g, s_dense, lam_prior, hard, cut, max_iter,
                                         early_stop)

        syn_sign_e = 1.0 - 2.0 * s_dense[g.edge_chk]
        m_vc = lam_prior[g.edge_var]
        self.v2c_edge_updates += g.nnz
        iterations = 0
        converged = False
        for it in range(1, max_iter + 1):
            iterations = it
            m_cv = self._check_update(g, m_vc, syn_sign_e)
            self.c2v_edge_updates += g.nnz

            total = lam_prior.copy()
            if g.nnz:
                seg_sums = np.add.reduceat(m_cv[g.var_perm], g.var_seg_starts)
                total[g.var_seg_ids] += seg_sums
            total = np.clip(total, -_TOTAL_CLAMP, _TOTAL_CLAMP)
            hard = total <= 0.0
            if early_stop and self._syndrome_matches(g, hard, s_dense):
                converged = True
                break
            if it < max_iter:
                m_vc = np.clip(total[g.edge_var] - m_cv, -LLR_CLAMP, LLR_CLAMP)
                self.v2c_edge_updates += g.nnz
        if not early_stop:
            converged = self._syndrome_matches(g, hard, s_dense)
        return BpOutput(_soft(total, cut), BitVec.from_dense(hard), converged, iterations)

    def _decode_compiled(
        self, kernel, g, s_dense, lam_prior, hard, cut, max_iter, early_stop
    ) -> BpOutput:
        """The min-sum loop above in one call into ``min_sum.c``, which writes
        the hard bits in place; the soft output is numpy's, as above."""
        syn = s_dense[g.chk_seg_ids]
        state = _CompiledMinSum(kernel, g, syn, lam_prior, hard, self.min_sum_scale)
        # a check with no edges and syndrome 1 is never satisfied
        test = early_stop and int(s_dense.sum()) == int(syn.sum())
        last = state.run(max_iter, test)
        iterations = -last - 1 if last < 0 else last
        converged = last < 0 or self._syndrome_matches(g, hard, s_dense)
        self.v2c_edge_updates = self.c2v_edge_updates = iterations * g.nnz
        return BpOutput(_soft(state.total, cut), BitVec.from_dense(hard), converged,
                        iterations)

    def _syndrome_matches(self, g: TannerGraph, hard: np.ndarray, s_dense: np.ndarray) -> bool:
        syn_hat = np.zeros(self.h.rows, dtype=np.int64)
        if g.nnz:
            bits = hard[g.edge_var].astype(np.int64)
            syn_hat[g.chk_seg_ids] = np.add.reduceat(bits, g.chk_seg_starts) & 1
        return bool(np.array_equal(syn_hat, s_dense.astype(np.int64)))

    def _check_update(self, g, m_vc, syn_sign_e):
        if self.variant == PRODUCT_SUM:
            return self._check_update_product_sum(g, m_vc, syn_sign_e)
        return _min_sum_numpy(g, m_vc, syn_sign_e, self.min_sum_scale)

    def _check_update_product_sum(self, g, m_vc, syn_sign_e):
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
        r = np.clip(r * syn_sign_e, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            m_cv = 2.0 * np.arctanh(r)
        return np.clip(m_cv, -LLR_CLAMP, LLR_CLAMP)
