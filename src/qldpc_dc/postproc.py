"""Post-processing for BP: degeneracy cutting, OSD-0, and composed pipelines.

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
from .bp import PRODUCT_SUM, BpDecoder, BpOutput
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


def first_bp(
    dec: BpDecoder, syndrome: BitVec, priors, max_iter: int
) -> tuple[DecodeResult, BpOutput]:
    """The first BP run of every pipeline; its result is final if BP converged."""
    out = dec.decode(syndrome, np.asarray(priors, dtype=float), max_iter)
    status = DecodeStatus.CONVERGED_FIRST_BP if out.converged else DecodeStatus.FAILED
    return DecodeResult(out.hard, status, frozenset(), (out.iterations_used,)), out


def _run_dc(
    dec: BpDecoder,
    h_deg: SparseBinMatrix,
    syndrome: BitVec,
    priors,
    max_iter: int,
    cfg: DcConfig,
) -> tuple[DecodeResult, np.ndarray | None]:
    """Shared BP+DC pipeline on ``dec``'s matrix and BP settings; also
    returns the second run's full-width soft."""
    h = dec.h
    if h.cols != h_deg.cols:
        raise ValueError("check and degeneracy matrices disagree on column count")
    priors = np.asarray(priors, dtype=float)
    first, out1 = first_bp(dec, syndrome, priors, max_iter)
    if out1.converged:
        return first, None

    rng = _dc_rng(cfg.rng_seed)
    cuts = dc_cut_indices(h_deg, out1.soft, rng)
    base = priors if cfg.second_run_priors is SecondRunPriors.RESET_TO_PRIOR else out1.soft

    if cfg.masking_mode is MaskingMode.ZERO_PRIORS:
        p2 = base.copy()
        p2[list(cuts)] = 0.0
        out2 = dec.decode(syndrome, p2, max_iter)
        estimate, soft2 = out2.hard, out2.soft
    else:
        h2, kept = h.without_columns(cuts)
        out2 = BpDecoder(h2, dec.variant, dec.min_sum_scale).decode(syndrome, base[kept], max_iter)
        estimate = BitVec.from_support(h.cols, kept[list(out2.hard.support)].tolist())
        soft2 = np.zeros(h.cols)
        soft2[kept] = out2.soft

    status = DecodeStatus.CONVERGED_AFTER_DC if out2.converged else DecodeStatus.FAILED
    result = DecodeResult(
        estimate, status, cuts, (out1.iterations_used, out2.iterations_used)
    )
    return result, soft2


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

    A given ``decoder`` supplies the BP settings of both runs, and
    ``variant``/``min_sum_scale`` are then ignored.
    """
    dec = decoder if decoder is not None else BpDecoder(h, variant, min_sum_scale)
    result, _ = _run_dc(dec, h_deg, syndrome, priors, max_iter, cfg)
    return result


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
    first, out = first_bp(dec, syndrome, priors, max_iter)
    if out.converged:
        return first
    estimate = osd0_decode(h, syndrome, out.soft)
    return DecodeResult(
        estimate, DecodeStatus.CONVERGED_AFTER_OSD, frozenset(), (out.iterations_used,)
    )


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
    result, soft2 = _run_dc(dec, h_deg, syndrome, priors, max_iter, cfg)
    if result.status is not DecodeStatus.FAILED:
        return result
    try:
        estimate = osd0_decode(h, syndrome, soft2, result.cut_indices)
    except InconsistentSystemError:
        return result  # cuts removed every solution; an honest failure
    return DecodeResult(
        estimate, DecodeStatus.CONVERGED_AFTER_OSD, result.cut_indices,
        result.bp_iterations,
    )
