"""Workload definitions and the per-trial decode shared by the benchmark,
the pool screener and the self-test.

The program under test is imported from ``src/`` of the checkout this file
sits in, never from an installed copy, so a directory without the sources
fails at import time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgramError(RuntimeError):
    """The checkout holds no ``src/qldpc_dc`` to benchmark."""


def import_program():
    """Import ``qldpc_dc`` from this checkout's ``src/`` and return its modules."""
    if not (SRC / "qldpc_dc" / "__init__.py").is_file():
        raise MissingProgramError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qldpc_dc
    from qldpc_dc import bp, gf2, noise, postproc, sim

    if Path(qldpc_dc.__file__).resolve().parent != (SRC / "qldpc_dc").resolve():
        raise MissingProgramError(f"qldpc_dc imported from {qldpc_dc.__file__}, not {SRC}")
    return bp, gf2, noise, postproc, sim


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # ExperimentConfig fields except trials, seed and threads
    threads: int  # processes of the throughput pass
    window: int  # trials per run_trials call
    windows_per_round: int
    pool_base: Optional[int]  # first screened window seed; None: unscreened
    pool_size: int = 0


WORKLOADS = (
    Workload(
        name="cc-surface5-dc",
        why="surface:5 code capacity p=0.04 bp-dc product-sum, one process: "
        "per-call overhead on a 12x25 graph, 30% of the trials take the DC path",
        config=dict(
            code="surface:5", noise="code-capacity", p=0.04, decoder="bp-dc",
            bp_variant="product-sum", dc_second_priors="posterior",
        ),
        threads=1,
        window=500,
        windows_per_round=4,
        pool_base=None,
    ),
    Workload(
        name="circuit-bb72-dc",
        why="bb:6,6 circuit T=6 p=0.005 bp-dc min-sum, one process: the paper's "
        "circuit-level BP+DC setting, BP on 7776 edges incl. the masked second run",
        config=dict(
            code="bb:6,6", noise="circuit-bb", rounds=6, p=0.005, decoder="bp-dc",
            bp_variant="min-sum", min_sum_scale=1.0, dc_second_priors="reset",
        ),
        threads=1,
        window=10,
        windows_per_round=20,
        pool_base=72_000,
        pool_size=48,
    ),
    Workload(
        name="circuit-bb144-osd",
        why="bb:12,6 circuit T=12 p=0.003 bp-osd max_iter=60, 2-process pool: "
        "OSD-0 on 30672 edges, model rebuilt per pool block",
        config=dict(
            code="bb:12,6", noise="circuit-bb", rounds=12, p=0.003, decoder="bp-osd",
            bp_variant="min-sum", min_sum_scale=1.0, max_iter=60,
        ),
        threads=2,
        window=25,
        windows_per_round=4,
        pool_base=144_000,
        pool_size=32,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def experiment_config(sim, wl: Workload, seed: int, trials: int, threads: int = 1):
    return sim.ExperimentConfig(**wl.config, trials=trials, seed=seed, threads=threads)


class Decoder:
    """One workload's model and BP decoder, decoding trials the way
    ``sim.run_trials`` does: same trial streams, same DC seeds, same calls."""

    def __init__(self, modules, wl: Workload, model=None):
        bp, _, self.noise, self.postproc, self.sim = modules
        self.wl = wl
        self.cfg = experiment_config(self.sim, wl, seed=0, trials=1)
        self.model = model if model is not None else self.sim.build_model(self.cfg)
        self.max_iter = self.sim.default_max_iter(self.cfg, self.model)
        self.bp_decoder = bp.BpDecoder(
            self.model.check_matrix, self.cfg.bp_variant, self.cfg.min_sum_scale
        )

    def sample(self, master_seed: int, t: int):
        """The trial's sample and its DC tie-break seed."""
        rng = self.noise.trial_rng(master_seed, t)
        sample = self.noise.make_trial(self.model, rng)
        return sample, int(rng.integers(0, 2**63))

    def decode(self, syndrome, dc_seed: int):
        """One call to the workload's public pipeline function."""
        pp, cfg, m = self.postproc, self.cfg, self.model
        if cfg.decoder == "bp-osd":
            return pp.bp_osd_decode(
                m.check_matrix, syndrome, m.priors, self.max_iter,
                variant=cfg.bp_variant, min_sum_scale=cfg.min_sum_scale,
                decoder=self.bp_decoder,
            )
        dc_cfg = pp.DcConfig(
            second_run_priors=pp.SecondRunPriors(cfg.dc_second_priors),
            rng_seed=dc_seed,
            masking_mode=pp.MaskingMode(cfg.dc_masking),
        )
        return pp.bp_dc_decode(
            m.check_matrix, m.degeneracy_matrix, syndrome, m.priors, self.max_iter,
            dc_cfg, variant=cfg.bp_variant, min_sum_scale=cfg.min_sum_scale,
            decoder=self.bp_decoder,
        )


def pipeline_name(wl: Workload) -> str:
    """The pipeline function ``sim`` calls for this workload's decoder."""
    return {"bp-dc": "bp_dc_decode", "bp-osd": "bp_osd_decode"}[wl.config["decoder"]]
