"""Command-line entry point.

Subcommands: ``code`` (build and export code matrices), ``dem`` (build
detector models), ``decode`` (decode a syndrome file), ``simulate`` and
``sweep`` (Monte Carlo failure-rate estimation).  Flags override values
from an optional JSON config file; every output is accompanied by a run
manifest recording the merged configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, noise, sim
from .bp import BpDecoder, min_sum_kernel
from .codes import BbParams, build_bb, known_distance
from .detmodel import find_low_weight_trivial
from .gf2 import BitVec, SparseBinMatrix, TripletFormatError, load_triplet, mat_mat_t, save_triplet
from .postproc import DcConfig, InconsistentSystemError, MaskingMode, SecondRunPriors
from .sim import DECODERS, ExperimentConfig


class CliError(Exception):
    pass


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def write_manifest(path: Path, config: dict, started: str, extra: dict | None = None) -> None:
    manifest = {
        "config": config,
        "tool_version": __version__,
        "rng_algorithm": noise.RNG_ALGORITHM,
        "started": started,
        "finished": _now(),
    }
    if extra:
        manifest.update(extra)
    with open(str(path) + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _numerics() -> dict:
    """What decoded bytes rest on besides the config: the BP kernel, and the
    numpy whose sum and product orders it reproduces, whose ``tanh`` and
    ``arctanh`` run between its product-sum calls and whose ``exp`` gives
    the soft output."""
    return {"bp_kernel": min_sum_kernel(), "numpy": np.__version__}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{path}: config file must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, keys: list[str]) -> dict:
    """Flags beat config-file values; config-file values beat defaults."""
    file_cfg = _load_config_file(args.config)
    for key in file_cfg:
        if key not in keys:
            raise CliError(f"{args.config}: unknown field {key!r}")
    merged = {}
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
        elif key in file_cfg:
            merged[key] = file_cfg[key]
    return merged


def _default_seed() -> int:
    env = os.environ.get("QLDPC_DC_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise CliError(f"QLDPC_DC_SEED: {env!r} is not an integer") from None


def _write_bits(path: Path, v: BitVec) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i in range(v.length):
            f.write(f"{v[i]}\n")


def _read_bits(path: str) -> BitVec:
    with open(path, "r", encoding="utf-8") as f:
        tokens = f.read().split()
    try:
        bits = [int(t) for t in tokens]
    except ValueError as exc:
        raise CliError(f"{path}: syndrome entries must be 0 or 1") from exc
    if any(b not in (0, 1) for b in bits):
        raise CliError(f"{path}: syndrome entries must be 0 or 1")
    return BitVec.from_support(len(bits), [i for i, b in enumerate(bits) if b])


def _write_priors(path: Path, priors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in priors:
            f.write(f"{p:.17g}\n")


def _read_priors(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        tokens = f.read().split()
    try:
        return np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise CliError(f"{path}: priors must be numbers") from exc


_CODE_KEYS = ("code", "bb_a", "bb_b")  # what sim.parse_code_spec reads
_MODEL_KEYS = (*_CODE_KEYS, "noise", "rounds", "p")  # what sim.build_model reads


def cmd_code(args) -> int:
    started = _now()
    parsed = sim.parse_code_spec(args.code, args.bb_a, args.bb_b)
    code = build_bb(parsed) if isinstance(parsed, BbParams) else parsed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, mat in (("hx", code.hx), ("hz", code.hz), ("ox", code.ox), ("oz", code.oz)):
        save_triplet(mat, out / f"{code.label}_{name}.txt")
    meta = {"n": code.n, "k": code.k, "label": code.label}
    d = known_distance(parsed)
    if d is not None:
        meta["cited_distance"] = d
    meta_path = out / f"{code.label}_meta.json"
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    write_manifest(meta_path, {k: getattr(args, k) for k in _CODE_KEYS}, started)
    print(f"wrote {code.label} (n={code.n}, k={code.k}) to {out}")
    return 0


def _export_model(model, out: Path, stem: str, config: dict, started: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    save_triplet(model.check_matrix, out / f"{stem}_dcm.txt")
    save_triplet(model.observables, out / f"{stem}_obs.txt")
    _write_priors(out / f"{stem}_priors.txt", model.priors)
    if model.degeneracy_matrix is not None:
        save_triplet(model.degeneracy_matrix, out / f"{stem}_ddm.txt")
    write_manifest(out / f"{stem}_dcm.txt", config, started)
    print(
        f"wrote {stem}: {model.check_matrix.rows} detectors x "
        f"{model.check_matrix.cols} mechanisms to {out}"
    )


def cmd_dem(args) -> int:
    """Export the detector model that ``simulate`` decodes at the same
    noise, code spec, rounds and p."""
    started = _now()
    # checked as simulate's flags are; a model reads none of the decoder fields
    cfg = ExperimentConfig(**{k: getattr(args, k) for k in _MODEL_KEYS}, decoder="bp", trials=1,
                           seed=0)
    model = sim.build_model(cfg)
    rounds = sim.measurement_rounds(cfg)
    label = model.metadata["code"]  # e.g. surface-d3 or bb-72-12-l6m6
    if args.noise == "circuit-bb":  # named by l and m only, as circuit_bb_l6m6_T6
        stem = f"circuit_bb_{label.rsplit('-', 1)[1]}_T{rounds}"
    else:
        stem = f"pheno_{label}_T{rounds}"
    config = {k: getattr(args, k) for k in _MODEL_KEYS} | {"rounds": rounds}
    _export_model(model, Path(args.out), stem, config, started)
    return 0


def cmd_check_trivial(args) -> int:
    h = load_triplet(args.dcm)
    obs = load_triplet(args.obs)
    trivial = find_low_weight_trivial(h, obs, args.wmax)
    for v in trivial:
        print(" ".join(str(j) for j in v.support))
    print(f"found {len(trivial)} trivial errors of weight <= {args.wmax}", file=sys.stderr)
    return 0


def _load_ddm(path: str, h: SparseBinMatrix, dcm: str) -> SparseBinMatrix:
    """The degeneracy matrix at ``path``, each of whose rows must be a
    nonempty trivial error of ``h``: its syndrome, a row of DDM * H^T, is 0."""
    ddm = load_triplet(path)
    if ddm.cols != h.cols:
        raise CliError(f"dimension mismatch: {path} has {ddm.cols} columns "
                       f"but the check matrix has {h.cols}")
    for i, (row, syndrome) in enumerate(zip(ddm.row_supports, mat_mat_t(ddm, h).row_supports)):
        if syndrome or not row:
            why = f"is not a trivial error of {dcm}: its syndrome is not 0" if row else "is empty"
            raise CliError(f"{path}: degeneracy row {i} {why}")
    return ddm


def cmd_decode(args) -> int:
    started = _now()
    h = load_triplet(args.dcm)
    syndrome = _read_bits(args.syndrome)
    if syndrome.length != h.rows:
        raise CliError(
            f"dimension mismatch: syndrome has {syndrome.length} bits "
            f"but the check matrix has {h.rows} rows"
        )
    if args.priors:
        priors = _read_priors(args.priors)
    else:
        priors = np.full(h.cols, args.p)
    if priors.shape[0] != h.cols:
        raise CliError(
            f"dimension mismatch: {priors.shape[0]} priors "
            f"but the check matrix has {h.cols} columns"
        )
    ddm = _load_ddm(args.ddm, h, args.dcm) if args.ddm else None
    max_iter = args.max_iter if args.max_iter is not None else h.cols
    dc_cfg = None
    if args.dc_second_priors:
        dc_cfg = DcConfig(
            second_run_priors=SecondRunPriors(args.dc_second_priors),
            rng_seed=args.seed if args.seed is not None else _default_seed(),
            masking_mode=MaskingMode(args.dc_masking),
        )
    result = sim.decode(
        args.decoder, BpDecoder(h, args.bp_variant, args.min_sum_scale), syndrome, priors,
        max_iter, ddm, dc_cfg,
    )
    status = result.status.value
    _write_bits(Path(args.out), result.estimate)
    write_manifest(
        Path(args.out),
        {k: getattr(args, k, None) for k in
         ("decoder", "bp_variant", "min_sum_scale", "max_iter", "dc_second_priors",
          "dc_masking", "seed", "p")},
        started,
        extra={"status": status, "min_sum_scale": args.min_sum_scale,
               **_numerics()},
    )
    print(f"{status}: estimate written to {args.out}")
    return 0


def _rate(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise CliError(f"--p: {token!r} is not a number") from None


_SIM_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)]
_REQUIRED = [f.name for f in dataclasses.fields(ExperimentConfig)
             if f.default is dataclasses.MISSING]
# decode's decoder flags default to the values a Monte Carlo point defaults to
_DECODE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                    if f.name in ("bp_variant", "min_sum_scale", "dc_masking")}


def cmd_points(args) -> int:
    """``simulate`` runs one point and ``sweep`` one per decoder and rate,
    both through ``sim.sweep``."""
    started = _now()
    if args.emit_plot_data and not args.out:
        raise CliError("--emit-plot-data needs --out")
    base = _merged(args, _SIM_KEYS)
    base.setdefault("seed", _default_seed())
    base.setdefault("threads", 1)
    if args.command == "sweep":  # the lists replace any p and decoder of the config file
        base["p"] = [_rate(t) for t in args.p.split(",")]
        base["decoder"] = [d.strip() for d in args.decoders.split(",")]
    elif args.p is not None:
        base["p"] = _rate(args.p)
    for name in _REQUIRED:
        if name not in base:
            raise CliError(f"missing field {name!r}: give --{name} or set it in --config")
    rates, decoders = base.pop("p"), base.pop("decoder")
    if args.command == "simulate":
        rates, decoders = [rates], [decoders]
    points = sim.sweep(base, rates, decoders)  # checks every point's config first
    cfgs = []
    records = []
    for cfg, stats in points:
        cfgs.append(cfg)
        records.append(sim.stats_record(cfg, stats))
    text = (
        sim.records_to_csv(records)
        if args.format == "csv"
        else sim.records_to_jsonl(records)
    )
    if not args.out:
        sys.stdout.write(text)
        return 0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    write_manifest(
        out, {"points": [dataclasses.asdict(c) for c in cfgs]}, started,
        extra={"min_sum_scale": cfgs[0].min_sum_scale, **_numerics()},
    )
    if args.emit_plot_data:
        by_decoder: dict[str, list[dict]] = {}
        for rec in records:
            by_decoder.setdefault(rec["decoder"], []).append(rec)
        for decoder, recs in sorted(by_decoder.items()):
            curve = out.with_name(f"{out.stem}_{decoder}.dat")
            with open(curve, "w", encoding="utf-8") as f:
                f.write("# p failure_rate ci_low ci_high\n")
                for rec in sorted(recs, key=lambda r: r["p"]):
                    f.write(
                        f"{rec['p']:.10g} {rec['rate']:.10g} "
                        f"{rec['ci_low']:.10g} {rec['ci_high']:.10g}\n"
                    )
    print(f"wrote {len(records)} rows to {out}")
    return 0


def _add_code_flags(p: argparse.ArgumentParser, required: bool, rounds: bool) -> None:
    """The code spec, as ``sim.parse_code_spec`` reads it, and the rounds T."""
    p.add_argument("--code", required=required, help="surface:<d> or bb:<l>,<m>")
    p.add_argument("--bb-a", dest="bb_a", help="BB A monomials, e.g. x3,y1,y2")
    p.add_argument("--bb-b", dest="bb_b", help="BB B monomials, e.g. y3,x1,x2")
    if rounds:
        p.add_argument("--rounds", type=int, help="measurement rounds T (default: d)")


def _add_decoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bp-variant", dest="bp_variant", choices=sim.CHOICES["bp_variant"])
    p.add_argument("--min-sum-scale", dest="min_sum_scale", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--dc-second-priors", dest="dc_second_priors",
                   choices=sim.CHOICES["dc_second_priors"])
    p.add_argument("--dc-masking", dest="dc_masking", choices=sim.CHOICES["dc_masking"])
    p.add_argument("--seed", type=int, help="seed (env QLDPC_DC_SEED as fallback)")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    _add_code_flags(p, required=False, rounds=True)
    _add_decoder_flags(p)
    p.add_argument("--noise", choices=sim.CHOICES["noise"])
    p.add_argument("--trials", type=int)
    p.add_argument("--threads", type=int, help="worker processes (default 1)")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.add_argument("--emit-plot-data", action="store_true",
                   help="also write per-decoder curve files next to --out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qldpc-dc",
        description="BP decoding of quantum LDPC codes with degeneracy cutting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="construct a code and export its matrices")
    _add_code_flags(p_code, required=True, rounds=False)
    p_code.add_argument("--out", default=".")
    p_code.set_defaults(func=cmd_code)

    p_dem = sub.add_parser("dem", help="build detector error models")
    dem_sub = p_dem.add_subparsers(dest="noise", required=True)
    for name in ("pheno", "circuit-bb"):
        p_model = dem_sub.add_parser(name)
        _add_code_flags(p_model, required=True, rounds=True)
        p_model.add_argument("--p", type=float, required=True)
        p_model.add_argument("--out", default=".")
        p_model.set_defaults(func=cmd_dem)
    p_triv = dem_sub.add_parser("check-trivial")
    p_triv.add_argument("--dcm", required=True, help="detector check matrix file")
    p_triv.add_argument("--obs", required=True, help="observable matrix file")
    p_triv.add_argument("--wmax", type=int, default=3)
    p_triv.set_defaults(func=cmd_check_trivial)

    p_dec = sub.add_parser("decode", help="decode one syndrome from files")
    p_dec.add_argument("--dcm", required=True)
    p_dec.add_argument("--ddm", help="degeneracy matrix (needed for dc decoders)")
    p_dec.add_argument("--syndrome", required=True)
    p_dec.add_argument("--priors", help="priors file, one probability per line")
    p_dec.add_argument("--p", type=float, default=0.01,
                       help="uniform prior when --priors is absent")
    p_dec.add_argument("--decoder", choices=DECODERS, default="bp")
    _add_decoder_flags(p_dec)
    p_dec.add_argument("--out", required=True)
    p_dec.set_defaults(func=cmd_decode, **_DECODE_DEFAULTS)

    p_sim = sub.add_parser("simulate", help="estimate one failure-rate point")
    _add_sim_flags(p_sim)
    p_sim.add_argument("--p", help="physical error rate")
    p_sim.add_argument("--decoder", choices=DECODERS)
    p_sim.set_defaults(func=cmd_points)

    p_sweep = sub.add_parser("sweep", help="failure rates over a list of p values")
    _add_sim_flags(p_sweep)
    p_sweep.add_argument("--p", required=True, help="comma-separated rates")
    p_sweep.add_argument("--decoders", default="bp,bp-dc",
                         help="comma-separated decoder list")
    p_sweep.set_defaults(func=cmd_points)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, TripletFormatError, InconsistentSystemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
