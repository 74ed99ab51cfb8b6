"""Post-processing for BP: degeneracy cutting, OSD-0, and the staged pipeline.

Degeneracy cutting removes, for every degeneracy row, the supported
variable with the lowest estimated error probability, then reruns BP once
on the modified graph.  Ties are broken uniformly at random from a seeded
generator; tie detection uses exact float equality, because symmetric
message flows produce exactly equal marginals on degenerate nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import gf2
from .bp import PRODUCT_SUM, BpDecoder
from .gf2 import BitVec, SparseBinMatrix


class InconsistentSystemError(RuntimeError):
    """OSD was asked to solve a syndrome outside the row space."""


class SecondRunPriors(enum.Enum):
    POSTERIOR = "posterior"
    RESET_TO_PRIOR = "reset"


class MaskingMode(enum.Enum):
    DELETE_COLUMNS = "delete-columns"
    ZERO_PRIORS = "zero-priors"


class DecodeStatus(enum.Enum):
    CONVERGED_FIRST_BP = "converged-first-bp"
    CONVERGED_AFTER_DC = "converged-after-dc"
    CONVERGED_AFTER_OSD = "converged-after-osd"
    FAILED = "failed"


@dataclass(frozen=True)
class DcConfig:
    second_run_priors: SecondRunPriors
    rng_seed: int = 0
    masking_mode: MaskingMode = MaskingMode.ZERO_PRIORS


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """``cut_indices`` is ``dc_cut_indices``' array, or ``NO_CUT``."""

    estimate: BitVec
    status: DecodeStatus
    cut_indices: np.ndarray
    bp_iterations: tuple[int, ...]


NO_CUT = np.empty(0, dtype=np.intp)  # the cut of every result that made none
NO_CUT.flags.writeable = False


def _dc_rng(seed: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0xDC], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def dc_cut_indices(h_deg: SparseBinMatrix, soft, rng: np.random.Generator) -> np.ndarray:
    """Lowest-probability variable per degeneracy row, ties drawn uniformly.

    Returns the cut columns as a sorted, unique, read-only intp array;
    rows that pick the same column cut it once.  Only soft values inside
    each row's support are read, in one pass over ``h_deg.csr``.  A row
    whose minimum is tied picks one of its tied columns, in column order,
    with ``rng.integers(len(ties))``; all tied rows draw in one
    array-bounded call, which numpy consumes as it does one scalar call
    per tied row in row order.
    """
    soft = np.asarray(soft, dtype=float)
    if soft.shape != (h_deg.cols,):
        raise ValueError(f"soft length {soft.shape} != degeneracy cols {h_deg.cols}")
    starts, cols = h_deg.csr
    vals = soft[cols]
    weight = np.diff(starts)
    mins = np.full(h_deg.rows, np.inf)
    full = weight > 0  # reduceat would give an empty row the next row's first value
    mins[full] = np.minimum.reduceat(vals, starts[:-1][full])
    if not (mins < np.inf).all():
        i = int(np.argmin(mins < np.inf))
        what = "has empty support" if not weight[i] else "has a NaN or infinite soft value"
        raise ValueError(f"degeneracy row {i} {what}")
    is_min = vals == np.repeat(mins, weight)
    counts = np.add.reduceat(is_min, starts[:-1], dtype=np.intp)
    pick = np.zeros(h_deg.rows, dtype=np.intp)
    tied = counts > 1
    if tied.any():
        pick[tied] = rng.integers(counts[tied])
    picked = np.zeros(h_deg.cols, dtype=bool)  # rows share columns: set each once
    picked[cols[np.flatnonzero(is_min)[np.cumsum(counts) - counts + pick]]] = True
    cuts = np.flatnonzero(picked)
    cuts.flags.writeable = False
    return cuts


def osd0_decode(h: SparseBinMatrix, syndrome: BitVec, soft, cut=NO_CUT) -> BitVec:
    """Order-0 ordered statistics: pivot on most-probable-error columns first.

    The ``cut`` columns, an index array or list, go last.  ``gf2.solve``
    stops once the syndrome is spanned, so it touches a cut column, and
    this raises, exactly when the other columns cannot span it; else the
    solution is OSD-0's on H without the cut columns, whose order among
    themselves is unchanged.
    """
    soft = np.asarray(soft, dtype=float)
    if soft.shape != (h.cols,):
        raise ValueError(f"soft length {soft.shape} != matrix cols {h.cols}")
    order = np.argsort(-soft, kind="stable")
    is_cut = None
    if len(cut):
        is_cut = np.zeros(h.cols, dtype=bool)
        is_cut[cut] = True
        order = order[np.argsort(is_cut[order], kind="stable")]
    x = gf2.solve(h, syndrome, order)
    if x is None or is_cut is not None and is_cut[list(x.support)].any():
        where = "row space of H^T" if is_cut is None else "span of H's uncut columns"
        raise InconsistentSystemError(f"syndrome not in the {where}")
    return x


def run_pipeline(
    dec: BpDecoder,
    syndrome: BitVec,
    priors,
    max_iter: int,
    h_deg: SparseBinMatrix | None = None,
    dc_cfg: DcConfig | None = None,
    osd: bool = False,
) -> DecodeResult:
    """Decode one syndrome through the stages BP, DC, OSD-0, in that order.

    BP runs on ``dec``'s matrix with its settings.  If it fails, a
    ``dc_cfg`` adds one degeneracy cut on ``h_deg`` and a second BP run,
    and then ``osd`` adds OSD-0 on the last run's soft output, with the
    cut columns taken last.  A stage runs only if the ones before it
    failed.  This is the one place that decides how a trial ended.  With
    no DC stage an inconsistent syndrome raises ``InconsistentSystemError``
    from OSD-0; after a cut it is an honest failure.
    """
    h = dec.h
    if dc_cfg is not None and h_deg is None:
        raise ValueError("the DC stage needs a degeneracy matrix")
    if dc_cfg is not None and h.cols != h_deg.cols:
        raise ValueError("check and degeneracy matrices disagree on column count")
    priors = np.asarray(priors, dtype=float)
    out = dec.decode(syndrome, priors, max_iter)
    estimate, soft, cuts = out.hard, out.soft, NO_CUT
    iterations = (out.iterations_used,)
    if out.converged:
        return DecodeResult(estimate, DecodeStatus.CONVERGED_FIRST_BP, cuts, iterations)

    if dc_cfg is not None:
        cuts = dc_cut_indices(h_deg, soft, _dc_rng(dc_cfg.rng_seed))
        base = priors if dc_cfg.second_run_priors is SecondRunPriors.RESET_TO_PRIOR else soft
        if dc_cfg.masking_mode is MaskingMode.ZERO_PRIORS:
            p2 = base.copy()
            p2[cuts] = 0.0
            out = dec.decode(syndrome, p2, max_iter)
            estimate, soft = out.hard, out.soft
        else:
            h2, kept = h.without_columns(cuts)
            out = BpDecoder(h2, dec.variant, dec.min_sum_scale).decode(
                syndrome, base[kept], max_iter
            )
            estimate = BitVec.from_support(h.cols, kept[list(out.hard.support)].tolist())
            soft = np.zeros(h.cols)
            soft[kept] = out.soft
        iterations += (out.iterations_used,)
        if out.converged:
            return DecodeResult(estimate, DecodeStatus.CONVERGED_AFTER_DC, cuts, iterations)

    if osd:
        try:
            x = osd0_decode(h, syndrome, soft, cuts)
        except InconsistentSystemError:
            if dc_cfg is None:
                raise
        else:
            return DecodeResult(x, DecodeStatus.CONVERGED_AFTER_OSD, cuts, iterations)
    return DecodeResult(estimate, DecodeStatus.FAILED, cuts, iterations)


def bp_dc_decode(
    h: SparseBinMatrix,
    h_deg: SparseBinMatrix,
    syndrome: BitVec,
    priors,
    max_iter: int,
    cfg: DcConfig,
    variant: str = PRODUCT_SUM,
    min_sum_scale: float = 0.625,
    decoder: BpDecoder | None = None,
) -> DecodeResult:
    """BP, then a single degeneracy cut and one BP rerun if BP failed.

    Kept, as is ``bp_osd_decode``, for the call shapes that
    ``perfbench/`` and the acceptance suite use.  A given ``decoder``
    supplies the matrix and BP settings of every stage.
    """
    dec = decoder if decoder is not None else BpDecoder(h, variant, min_sum_scale)
    return run_pipeline(dec, syndrome, priors, max_iter, h_deg, cfg)


def bp_osd_decode(
    h: SparseBinMatrix,
    syndrome: BitVec,
    priors,
    max_iter: int,
    variant: str = PRODUCT_SUM,
    min_sum_scale: float = 0.625,
    decoder: BpDecoder | None = None,
) -> DecodeResult:
    """BP with OSD-0 fallback on the first run's soft output."""
    dec = decoder if decoder is not None else BpDecoder(h, variant, min_sum_scale)
    return run_pipeline(dec, syndrome, priors, max_iter, osd=True)

