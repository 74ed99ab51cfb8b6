#!/usr/bin/env python3
"""Code-capacity failure-rate sweep for surface and bicycle codes.

Reproduces the desk-scale comparison between BP, BP+DC, BP+OSD and
BP+DC+OSD.  Surface codes run product-sum BP with posterior second-run
priors; bicycle codes run plain min-sum with prior-reset second runs.
Output: one CSV per code family plus per-decoder curve files.
"""

import argparse
import sys
from pathlib import Path

from qldpc_dc import sim

SURFACE_RATES = [0.02, 0.05, 0.08, 0.11]
BB_RATES = [0.02, 0.04, 0.06, 0.08]
DECODERS = ["bp", "bp-dc", "bp-osd", "bp-dc-osd"]


def sweep(code, noise, rates, trials, seed, threads, **kw):
    base = dict(code=code, noise=noise, trials=trials, seed=seed, threads=threads, **kw)
    records = []
    for cfg, stats in sim.sweep(base, rates, DECODERS):
        records.append(sim.stats_record(cfg, stats))
        print(
            f"{code} {cfg.decoder:10s} p={cfg.p:<6g} rate={stats.failure_rate:.5f} "
            f"ci=({stats.ci_low:.5f},{stats.ci_high:.5f})"
        )
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="results/code_capacity")
    ap.add_argument("--surface-d", type=int, nargs="*", default=[3, 5])
    ap.add_argument("--bb", nargs="*", default=["6,6"])
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for d in args.surface_d:
        records = sweep(
            f"surface:{d}", "code-capacity", SURFACE_RATES,
            args.trials, args.seed, args.threads,
            bp_variant="product-sum", dc_second_priors="posterior",
        )
        (outdir / f"surface_d{d}.csv").write_text(sim.records_to_csv(records))
    for lm in args.bb:
        records = sweep(
            f"bb:{lm}", "code-capacity", BB_RATES,
            args.trials, args.seed, args.threads,
            bp_variant="min-sum", min_sum_scale=1.0, dc_second_priors="reset",
        )
        (outdir / f"bb_{lm.replace(',', 'x')}.csv").write_text(
            sim.records_to_csv(records)
        )
    print(f"results under {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
