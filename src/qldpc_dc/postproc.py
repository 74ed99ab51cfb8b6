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
    estimate: BitVec
    status: DecodeStatus
    cut_indices: frozenset
    bp_iterations: tuple[int, ...]


def _dc_rng(seed: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0xDC], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def dc_cut_indices(h_deg: SparseBinMatrix, soft, rng: np.random.Generator) -> frozenset:
    """Lowest-probability variable per degeneracy row, ties drawn uniformly.

    Only soft values inside each row's support are read.
    """
    soft = np.asarray(soft, dtype=float)
    if soft.shape != (h_deg.cols,):
        raise ValueError(f"soft length {soft.shape} != degeneracy cols {h_deg.cols}")
    cuts = set()
    for i, support in enumerate(h_deg.row_supports):
        if not support:
            raise ValueError(f"degeneracy row {i} has empty support")
        best = None
        ties: list[int] = []
        for idx in support:
            v = soft[idx]
            if best is None or v < best:
                best = v
                ties = [idx]
            elif v == best:
                ties.append(idx)
        if len(ties) == 1:
            cuts.add(ties[0])
        else:
            cuts.add(ties[int(rng.integers(len(ties)))])
    return frozenset(cuts)


def osd0_decode(h: SparseBinMatrix, syndrome: BitVec, soft, cut=frozenset()) -> BitVec:
    """Order-0 ordered statistics: pivot on most-probable-error columns first.

    The ``cut`` columns go last.  ``gf2.solve`` stops once the syndrome is
    spanned, so it touches a cut column, and this raises, exactly when the
    other columns cannot span it; else the solution is OSD-0's on H
    without the cut columns, whose order among themselves is unchanged.
    """
    soft = np.asarray(soft, dtype=float)
    if soft.shape != (h.cols,):
        raise ValueError(f"soft length {soft.shape} != matrix cols {h.cols}")
    order = np.argsort(-soft, kind="stable")
    if cut:
        is_cut = np.zeros(h.cols, dtype=bool)
        is_cut[list(cut)] = True
        order = order[np.argsort(is_cut[order], kind="stable")]
    x = gf2.solve(h, syndrome, order)
    if x is None or cut and not cut.isdisjoint(x.support):
        where = "span of H's uncut columns" if cut else "row space of H^T"
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
    estimate, soft, cuts = out.hard, out.soft, frozenset()
    iterations = (out.iterations_used,)
    if out.converged:
        return DecodeResult(estimate, DecodeStatus.CONVERGED_FIRST_BP, cuts, iterations)

    if dc_cfg is not None:
        cuts = dc_cut_indices(h_deg, soft, _dc_rng(dc_cfg.rng_seed))
        base = priors if dc_cfg.second_run_priors is SecondRunPriors.RESET_TO_PRIOR else soft
        if dc_cfg.masking_mode is MaskingMode.ZERO_PRIORS:
            p2 = base.copy()
            p2[list(cuts)] = 0.0
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

    Kept, as are the two wrappers below, for the call shapes that
    ``perfbench/workloads.py`` and the acceptance suite use.  A given
    ``decoder`` supplies the matrix and BP settings of every stage.
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


def bp_dc_osd_decode(
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
    """BP+DC, then OSD-0 on H's uncut columns if the second BP fails."""
    dec = decoder if decoder is not None else BpDecoder(h, variant, min_sum_scale)
    return run_pipeline(dec, syndrome, priors, max_iter, h_deg, cfg, osd=True)
