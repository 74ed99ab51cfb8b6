"""Monte Carlo estimation of decoding-failure probability.

A trial fails either because the estimate misses the syndrome
(nonconvergence) or because the residual flips a logical observable.
Scoring is outcome-based: a nonconvergent decoder whose estimate happens
to satisfy the syndrome is still scored by the logical test.  Confidence
intervals are Wilson score intervals at 95%, which behave sensibly at
zero observed failures.
"""

from __future__ import annotations

import concurrent.futures
import csv
import enum
import io
import json
import math
import numbers
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import noise
from .bp import PRODUCT_SUM, BpDecoder
from .codes import BbParams, bb_params, build_bb, build_rotated_surface, known_distance
from .detmodel import (
    DetectorModel,
    build_bb_circuit_model,
    build_pheno_model,
    code_capacity_model,
)
from .gf2 import BitVec, SparseBinMatrix, mat_vec_t
from .postproc import (
    DcConfig,
    DecodeResult,
    MaskingMode,
    SecondRunPriors,
    bp_dc_decode,
    bp_dc_osd_decode,
    bp_osd_decode,
    run_pipeline,
)

DECODERS = ("bp", "bp-dc", "bp-osd", "bp-dc-osd")

CSV_HEADER = "code,noise,decoder,p,T,trials,fail_logical,fail_nonconv,rate,ci_low,ci_high,seed"


class Outcome(enum.Enum):
    SUCCESS = "success"
    LOGICAL_FAILURE = "logical-failure"
    NONCONVERGENT = "nonconvergent"


def check_success(
    error: BitVec, estimate: BitVec, checks: SparseBinMatrix, observables: SparseBinMatrix
) -> Outcome:
    """Outcome-based scoring of one decoded trial: the estimate misses the
    syndrome exactly when the residual ``error ^ estimate`` has one."""
    residual = error ^ estimate
    if mat_vec_t(residual, checks).weight():
        return Outcome.NONCONVERGENT
    if mat_vec_t(residual, observables).weight():
        return Outcome.LOGICAL_FAILURE
    return Outcome.SUCCESS


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


@dataclass(frozen=True)
class FailureStats:
    trials: int
    failures_logical: int
    failures_nonconvergent: int
    failure_rate: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, trials: int, logical: int, nonconv: int) -> "FailureStats":
        fails = logical + nonconv
        lo, hi = wilson_interval(fails, trials)
        return cls(trials, logical, nonconv, fails / trials, lo, hi)


def _is_int(value) -> bool:
    """True for ints and integer scalars that ``operator.index`` accepts, bools excepted."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to bit-reproduce one failure-rate point."""

    code: str  # "surface:3" or "bb:6,6"
    noise: str  # "code-capacity" | "pheno" | "circuit-bb"
    p: float
    decoder: str
    trials: int
    seed: int
    rounds: Optional[int] = None  # defaults to d for pheno/circuit models
    bp_variant: str = PRODUCT_SUM
    min_sum_scale: float = 0.625
    max_iter: Optional[int] = None  # defaults: n (code capacity) or 1000
    dc_second_priors: Optional[str] = None  # "posterior" | "reset"
    dc_masking: str = MaskingMode.ZERO_PRIORS.value
    threads: int = 1
    bb_a: Optional[str] = None  # monomials like "x3,y1,y2"
    bb_b: Optional[str] = None

    def __post_init__(self):
        # values from a JSON config file arrive unchecked
        for name in ("code", "noise", "bp_variant", "dc_second_priors", "dc_masking",
                     "bb_a", "bb_b"):
            value = getattr(self, name)
            if value is None and name in ("dc_second_priors", "bb_a", "bb_b"):
                continue
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        for name in ("p", "min_sum_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.p < 0.5:
            raise ValueError("p must lie in (0, 0.5)")
        for name in ("trials", "seed", "threads", "rounds", "max_iter"):
            value = getattr(self, name)
            if value is None and name in ("rounds", "max_iter"):
                continue
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if "dc" in self.decoder and self.dc_second_priors is None:
            raise ValueError("dc decoders require an explicit dc_second_priors choice")


def parse_code_spec(spec: str, bb_a: Optional[str] = None, bb_b: Optional[str] = None):
    """Parse "surface:<d>" or "bb:<l>,<m>" into a constructed code."""
    kind, _, rest = spec.partition(":")
    tokens = rest.split(",")
    if len(tokens) != {"surface": 1, "bb": 2}.get(kind):
        raise ValueError(f"code {spec!r}: expected surface:<d> or bb:<l>,<m>")
    sizes = []
    for token in tokens:
        try:
            sizes.append(int(token))
        except ValueError:
            raise ValueError(f"code {spec!r}: {token!r} is not an integer") from None
    if kind == "surface":
        return build_rotated_surface(*sizes)
    return bb_params(*sizes, bb_a, bb_b)


def measurement_rounds(cfg: ExperimentConfig) -> int:
    """The point's measurement rounds T: 0 for code capacity, else
    ``cfg.rounds``, else the cited distance d (2 if none is on record)."""
    if cfg.noise == "code-capacity":
        return 0
    if cfg.rounds is not None:
        return cfg.rounds
    if cfg.code.startswith("surface:"):  # d without building the code
        return int(cfg.code.split(":")[1])
    d = known_distance(parse_code_spec(cfg.code, cfg.bb_a, cfg.bb_b))
    return d if d is not None else 2


def build_model(cfg: ExperimentConfig) -> DetectorModel:
    parsed = parse_code_spec(cfg.code, cfg.bb_a, cfg.bb_b)
    rounds = measurement_rounds(cfg)
    if cfg.noise == "code-capacity":
        code = build_bb(parsed) if isinstance(parsed, BbParams) else parsed
        return code_capacity_model(code, cfg.p)
    if cfg.noise == "pheno":
        code = build_bb(parsed) if isinstance(parsed, BbParams) else parsed
        return build_pheno_model(code, rounds, cfg.p)
    if cfg.noise == "circuit-bb":
        if not isinstance(parsed, BbParams):
            raise ValueError("circuit-bb noise requires a bb:<l>,<m> code spec")
        return build_bb_circuit_model(parsed, rounds, cfg.p)
    raise ValueError(f"unknown noise model {cfg.noise!r}")


def default_max_iter(cfg: ExperimentConfig, model: DetectorModel) -> int:
    if cfg.max_iter is not None:
        return cfg.max_iter
    if cfg.noise == "code-capacity":
        return model.check_matrix.cols
    return 1000


def decode(
    decoder_name: str,
    bp_decoder: BpDecoder,
    syndrome: BitVec,
    priors,
    max_iter: int,
    h_deg: Optional[SparseBinMatrix] = None,
    dc_cfg: Optional[DcConfig] = None,
) -> DecodeResult:
    """Decode one syndrome with one of DECODERS.

    The only place that branches on a decoder name, each a set of stages
    of ``run_pipeline``.  The check matrix, BP variant and min-sum scale
    are those of ``bp_decoder``.  Its wrappers are looked up as module
    globals at call time, so a caller may swap them (to time or trace them).
    """
    if decoder_name == "bp":
        return run_pipeline(bp_decoder, syndrome, priors, max_iter)
    h = bp_decoder.h
    if decoder_name == "bp-osd":
        return bp_osd_decode(h, syndrome, priors, max_iter, decoder=bp_decoder)
    if h_deg is None:
        raise ValueError(f"decoder {decoder_name} needs a degeneracy matrix")
    if dc_cfg is None:
        raise ValueError(f"decoder {decoder_name} requires a dc_second_priors choice")
    pipeline = bp_dc_decode if decoder_name == "bp-dc" else bp_dc_osd_decode
    return pipeline(h, h_deg, syndrome, priors, max_iter, dc_cfg, decoder=bp_decoder)


def _run_block(cfg: ExperimentConfig, model: DetectorModel, lo: int, hi: int):
    max_iter = default_max_iter(cfg, model)
    bp_decoder = BpDecoder(model.check_matrix, cfg.bp_variant, cfg.min_sum_scale)
    second = (
        SecondRunPriors(cfg.dc_second_priors)
        if cfg.dc_second_priors is not None
        else SecondRunPriors.RESET_TO_PRIOR
    )
    masking = MaskingMode(cfg.dc_masking)
    logical = 0
    nonconv = 0
    for t in range(lo, hi):
        rng = noise.trial_rng(cfg.seed, t)
        sample = noise.make_trial(model, rng)
        dc_cfg = DcConfig(
            second_run_priors=second,
            rng_seed=int(rng.integers(0, 2**63)),
            masking_mode=masking,
        )
        result = decode(
            cfg.decoder, bp_decoder, sample.syndrome, model.priors, max_iter,
            model.degeneracy_matrix, dc_cfg,
        )
        outcome = check_success(
            sample.error, result.estimate, model.check_matrix, model.observables
        )
        if outcome is Outcome.LOGICAL_FAILURE:
            logical += 1
        elif outcome is Outcome.NONCONVERGENT:
            nonconv += 1
    return logical, nonconv


_worker_model: Optional[DetectorModel] = None  # set once in each pool worker


def _init_worker(model: DetectorModel) -> None:
    global _worker_model
    _worker_model = model


def _run_worker_block(cfg: ExperimentConfig, lo: int, hi: int):
    return _run_block(cfg, _worker_model, lo, hi)


def run_trials(cfg: ExperimentConfig, model: Optional[DetectorModel] = None) -> FailureStats:
    """Run cfg.trials seeded trials; a pure function of the config and model."""
    if model is None:
        model = build_model(cfg)
    if cfg.threads <= 1:
        logical, nonconv = _run_block(cfg, model, 0, cfg.trials)
        return FailureStats.from_counts(cfg.trials, logical, nonconv)
    chunk = max(1, -(-cfg.trials // (cfg.threads * 4)))
    blocks = [(lo, min(lo + chunk, cfg.trials)) for lo in range(0, cfg.trials, chunk)]
    logical = 0
    nonconv = 0
    # the pool forks all its workers at once; results do not depend on their number
    workers = min(cfg.threads, len(blocks), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(model,)
    ) as pool:
        futures = [pool.submit(_run_worker_block, cfg, lo, hi) for lo, hi in blocks]
        for fut in futures:
            l, nc = fut.result()
            logical += l
            nonconv += nc
    return FailureStats.from_counts(cfg.trials, logical, nonconv)


def sweep(
    base: dict, rates: Sequence[float], decoders: Sequence[str]
) -> Iterator[tuple[ExperimentConfig, FailureStats]]:
    """Run one point per (decoder, p) and yield its config and stats.

    Points come decoder-major: every rate for the first decoder, then the
    next decoder.  ``base`` holds the other ``ExperimentConfig`` fields.
    Every point's config is built, and so validated, before the first
    point runs.  The detector model depends on the rate, not on the
    decoder, so each rate's model is built once and dropped after the last
    decoder's point at that rate.
    """
    cfgs = [ExperimentConfig(**base, p=p, decoder=d) for d in decoders for p in rates]

    def points():
        models = {}  # rate index -> model, kept for the next decoder
        for k, cfg in enumerate(cfgs):
            j = k % len(rates)
            model = models.pop(j) if j in models else build_model(cfg)
            if k + len(rates) < len(cfgs):
                models[j] = model
            yield cfg, run_trials(cfg, model)

    return points()


def stats_record(cfg: ExperimentConfig, stats: FailureStats) -> dict:
    return {
        "code": cfg.code,
        "noise": cfg.noise,
        "decoder": cfg.decoder,
        "p": cfg.p,
        "T": measurement_rounds(cfg),
        "trials": stats.trials,
        "fail_logical": stats.failures_logical,
        "fail_nonconv": stats.failures_nonconvergent,
        "rate": stats.failure_rate,
        "ci_low": stats.ci_low,
        "ci_high": stats.ci_high,
        "seed": cfg.seed,
    }


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def records_to_csv(records: Iterable[dict]) -> str:
    """Rows under ``CSV_HEADER``; a field that holds a comma, such as the
    code ``bb:6,6``, is quoted as RFC 4180 says."""
    keys = CSV_HEADER.split(",")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [keys] + [[_format_value(rec[k]) for k in keys] for rec in records])
    return out.getvalue()


def records_to_jsonl(records: Iterable[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
