"""Screen the trial windows that the benchmark's circuit workloads draw from.

A window is the first ``window`` trials of one master seed, i.e. exactly
what ``run_trials`` decodes for that seed.  For every trial the screen
records how the decode ended and how many BP iterations it used, so the
benchmark can pick, per ``--seed``, a set of windows whose mix of outcomes
and iteration counts matches the whole pool (see ``run.py``).

    python3 perfbench/screen.py [workload ...]   # rewrites perfbench/pools.json

Rerun it after any change that alters decoding outcomes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import BY_NAME, WORKLOADS, Decoder, import_program

POOLS = Path(__file__).resolve().parent / "pools.json"

STATUS_CODE = {
    "converged-first-bp": "b",
    "converged-after-dc": "d",
    "converged-after-osd": "o",
    "failed": "f",
}


def screen(modules, wl) -> list[dict]:
    dec = Decoder(modules, wl)
    windows = []
    for j in range(wl.pool_size):
        seed = wl.pool_base + j
        status, iters = [], []
        for t in range(wl.window):
            sample, dc_seed = dec.sample(seed, t)
            result = dec.decode(sample.syndrome, dc_seed)
            status.append(STATUS_CODE[result.status.value])
            iters.append(sum(result.bp_iterations))
        windows.append({"seed": seed, "status": "".join(status), "iters": iters})
        print(f"{wl.name} window {j + 1}/{wl.pool_size}: {''.join(status)}", file=sys.stderr)
    return windows


def main(argv: list[str]) -> int:
    modules = import_program()
    names = argv or [w.name for w in WORKLOADS if w.pool_base is not None]
    pools = json.loads(POOLS.read_text()) if POOLS.exists() else {}
    for name in names:
        wl = BY_NAME[name]
        pools[name] = {"config": wl.config, "window": wl.window, "windows": screen(modules, wl)}
    POOLS.write_text(json.dumps(pools, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
