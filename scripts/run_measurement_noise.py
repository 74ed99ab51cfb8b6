#!/usr/bin/env python3
"""Failure rates under phenomenological and circuit-level noise.

Decodes with the detector check matrix and cuts with the detector
degeneracy matrix (T = d measurement rounds, BP capped at 1000
iterations, as in the reference experiments).  Desk-scale trial counts;
pass --trials to push statistics further.
"""

import argparse
import sys
from pathlib import Path

from qldpc_dc import sim

DECODERS = ["bp", "bp-dc", "bp-osd", "bp-dc-osd"]


def run_points(code, noise, rates, rounds, trials, seed, threads, **kw):
    base = dict(
        code=code, noise=noise, rounds=rounds, trials=trials, seed=seed,
        threads=threads, max_iter=1000, **kw,
    )
    records = []
    for cfg, stats in sim.sweep(base, rates, DECODERS):
        records.append(sim.stats_record(cfg, stats))
        print(
            f"{noise} {code} {cfg.decoder:10s} p={cfg.p:<7g} "
            f"rate={stats.failure_rate:.5f}"
        )
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="results/measurement_noise")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    records = run_points(
        "surface:3", "pheno", [0.01, 0.02, 0.03], 3,
        args.trials, args.seed, args.threads,
        bp_variant="product-sum", dc_second_priors="posterior",
    )
    (outdir / "pheno_surface_d3.csv").write_text(sim.records_to_csv(records))

    records = run_points(
        "bb:6,6", "pheno", [0.005, 0.01, 0.02], 6,
        args.trials, args.seed, args.threads,
        bp_variant="min-sum", min_sum_scale=1.0, dc_second_priors="reset",
    )
    (outdir / "pheno_bb_6x6.csv").write_text(sim.records_to_csv(records))

    records = run_points(
        "bb:6,6", "circuit-bb", [0.001, 0.003, 0.005], 6,
        args.trials, args.seed, args.threads,
        bp_variant="min-sum", min_sum_scale=1.0, dc_second_priors="reset",
    )
    (outdir / "circuit_bb_6x6.csv").write_text(sim.records_to_csv(records))
    print(f"results under {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
