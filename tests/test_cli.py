"""CLI tests: file formats, round-trips, byte-identical reruns."""

import hashlib
import json
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qldpc_dc import bp, noise, sim
from qldpc_dc.cli import build_parser, main
from qldpc_dc.codes import build_rotated_surface
from qldpc_dc.gf2 import SparseBinMatrix, load_triplet, mat_vec_t, save_triplet, BitVec


def run_cli(*argv):
    return main(list(argv))


def assert_config_file_rejected(tmp_path, capsys, command, bad):
    """One bad field in a config file: exit 1 with one ``error: <name> must
    be ...`` line, nothing on stdout, no output file and no manifest."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "code": "surface:3", "noise": "pheno", "p": 0.02, "decoder": "bp",
        "trials": 5, **bad,
    }))
    out = tmp_path / "r.csv"
    p_flags = ["--p", "0.02"] if command == "sweep" else []
    assert run_cli(command, "--config", str(cfg), *p_flags, "--out", str(out)) == 1
    captured = capsys.readouterr()
    (name,) = bad
    assert captured.err.startswith(f"error: {name} must be ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not out.with_name(out.name + ".manifest.json").exists()


class TestCodeCommand:
    def test_surface_export(self, tmp_path):
        assert run_cli("code", "--code", "surface:3", "--out", str(tmp_path)) == 0
        meta = json.loads((tmp_path / "surface-d3_meta.json").read_text())
        assert meta == {"n": 9, "k": 1, "label": "surface-d3", "cited_distance": 3}
        code = build_rotated_surface(3)
        for name, mat in (("hx", code.hx), ("hz", code.hz),
                          ("ox", code.ox), ("oz", code.oz)):
            assert load_triplet(tmp_path / f"surface-d3_{name}.txt") == mat
        assert (tmp_path / "surface-d3_meta.json.manifest.json").exists()

    def test_bb_export(self, tmp_path):
        assert run_cli(
            "code", "--code", "bb:6,6",
            "--bb-a", "x3,y1,y2", "--bb-b", "y3,x1,x2", "--out", str(tmp_path),
        ) == 0
        metas = list(tmp_path.glob("*_meta.json"))
        assert len(metas) == 1
        meta = json.loads(metas[0].read_text())
        assert (meta["n"], meta["k"]) == (72, 12)

    def test_code_and_dem_manifests_build_no_kernel(self, tmp_path, monkeypatch):
        """Commands that decode nothing neither compile the min-sum kernel nor
        record one."""
        monkeypatch.setattr(bp, "_kernel", bp._UNLOADED)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        out = tmp_path / "out"
        assert run_cli("code", "--code", "surface:3", "--out", str(out)) == 0
        assert run_cli("dem", "pheno", "--code", "surface:3", "--rounds", "1",
                       "--p", "0.01", "--out", str(out)) == 0
        manifests = sorted(out.glob("*.manifest.json"))
        assert len(manifests) == 2
        for path in manifests:
            manifest = json.loads(path.read_text())
            assert "bp_kernel" not in manifest and "min_sum_scale" not in manifest
            assert "numpy" not in manifest
        assert not list(tmp_path.rglob("*.so"))
        assert bp._kernel is bp._UNLOADED

    def test_invalid_d_fails_with_diagnostic(self, tmp_path, capsys):
        assert run_cli("code", "--code", "surface:4", "--out", str(tmp_path)) == 1
        assert "error:" in capsys.readouterr().err

    def test_bb_without_logical_qubits_rejected(self, tmp_path, capsys):
        """Monomials that give k = 0 write nothing: one error line, exit 1."""
        assert run_cli("code", "--code", "bb:6,6", "--bb-a", "x1,y1,y2",
                       "--out", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: bb:6,6 with A=x1,y1,y2, B=y3,x1,x2 encodes no logical "
                                "qubit (k=0)\n")
        assert captured.out == ""
        assert not list(tmp_path.iterdir())


class TestDemCommand:
    def test_pheno_export(self, tmp_path):
        assert run_cli(
            "dem", "pheno", "--code", "surface:3", "--rounds", "2",
            "--p", "0.01", "--out", str(tmp_path),
        ) == 0
        dcm = load_triplet(tmp_path / "pheno_surface-d3_T2_dcm.txt")
        assert dcm.shape == (12, 2 * 13 + 9)
        priors = [float(x) for x in
                  (tmp_path / "pheno_surface-d3_T2_priors.txt").read_text().split()]
        assert len(priors) == dcm.cols
        assert (tmp_path / "pheno_surface-d3_T2_ddm.txt").exists()

    def test_circuit_bb_export(self, tmp_path):
        assert run_cli(
            "dem", "circuit-bb", "--code", "bb:6,6", "--rounds", "1",
            "--p", "0.001", "--out", str(tmp_path),
        ) == 0
        dcm = load_triplet(tmp_path / "circuit_bb_l6m6_T1_dcm.txt")
        assert dcm.cols == 5 * 72 + 72

    @pytest.mark.parametrize("argv,stem", [
        (("pheno", "--code", "surface:3", "--rounds", "1", "--p", "0.01"),
         "pheno_surface-d3_T1"),
        (("circuit-bb", "--code", "bb:6,6", "--rounds", "1", "--p", "0.001"),
         "circuit_bb_l6m6_T1"),
    ], ids=["pheno", "circuit-bb"])
    def test_empty_out_writes_to_cwd(self, tmp_path, monkeypatch, capsys, argv, stem):
        monkeypatch.chdir(tmp_path)
        assert run_cli("dem", *argv, "--out", "") == 0
        assert "Traceback" not in capsys.readouterr().err
        for suffix in ("dcm.txt", "obs.txt", "priors.txt", "ddm.txt", "dcm.txt.manifest.json"):
            assert (tmp_path / f"{stem}_{suffix}").exists(), suffix

    @pytest.mark.parametrize("argv", [
        ("pheno", "--code", "surface:3", "--rounds", "1"),
        ("circuit-bb", "--code", "bb:6,6", "--rounds", "1"),
    ], ids=["pheno", "circuit-bb"])
    @pytest.mark.parametrize("p", ["0.9", "0.5", "0", "nan"])
    def test_p_outside_the_open_half_interval_rejected(self, tmp_path, capsys, argv, p):
        """``dem`` takes the rates ``simulate`` takes: one error line, no file."""
        assert run_cli("dem", *argv, "--p", p, "--out", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: p must lie in (0, 0.5)\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("pheno", "--code", "surface:3"), ("circuit-bb", "--code", "bb:6,6"),
    ], ids=["pheno", "circuit-bb"])
    @pytest.mark.parametrize("rounds", ["0", "-1"])
    def test_rounds_below_one_rejected(self, tmp_path, capsys, argv, rounds):
        """``dem`` checks ``--rounds`` as ``simulate`` does, by the flag's name."""
        assert run_cli("dem", *argv, "--rounds", rounds, "--p", "0.01",
                       "--out", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: rounds must be >= 1\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_check_trivial(self, tmp_path, capsys):
        run_cli(
            "dem", "pheno", "--code", "surface:3", "--rounds", "1",
            "--p", "0.01", "--out", str(tmp_path),
        )
        assert run_cli(
            "dem", "check-trivial",
            "--dcm", str(tmp_path / "pheno_surface-d3_T1_dcm.txt"),
            "--obs", str(tmp_path / "pheno_surface-d3_T1_obs.txt"),
            "--wmax", "2",
        ) == 0

    def test_malformed_matrix_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2 1\n0 oops\n")
        assert run_cli(
            "dem", "check-trivial", "--dcm", str(bad), "--obs", str(bad)
        ) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["2 -5 0", "-1 3 0"])
    def test_negative_size_header_is_one_error_line(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.txt"
        bad.write_text(header + "\n")
        assert run_cli("dem", "check-trivial", "--dcm", str(bad), "--obs", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: line 1: negative size\n"
        assert captured.out == ""


    def test_pheno_bb_monomials_match_build_model(self, tmp_path):
        """``dem pheno`` takes the monomials ``simulate`` takes and writes
        the model ``simulate`` decodes at the same point."""
        mono = {"bb_a": "x1,y2,y3", "bb_b": "y3,x1,x2"}  # a [[72, 8]] code
        assert run_cli(
            "dem", "pheno", "--code", "bb:6,6", "--bb-a", mono["bb_a"],
            "--bb-b", mono["bb_b"], "--rounds", "1", "--p", "0.002", "--out", str(tmp_path),
        ) == 0
        model = sim.build_model(sim.ExperimentConfig(
            code="bb:6,6", noise="pheno", rounds=1, p=0.002, decoder="bp", trials=1,
            seed=0, **mono,
        ))
        stem = tmp_path / "pheno_bb-72-8-l6m6_T1"
        assert load_triplet(f"{stem}_dcm.txt") == model.check_matrix
        assert load_triplet(f"{stem}_obs.txt") == model.observables
        assert load_triplet(f"{stem}_ddm.txt") == model.degeneracy_matrix
        priors = [float(x) for x in Path(f"{stem}_priors.txt").read_text().split()]
        assert priors == model.priors.tolist()

    def test_circuit_bb_needs_a_bb_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("dem", "circuit-bb", "--code", "surface:3", "--p", "0.001",
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: circuit-bb noise requires a bb:<l>,<m> code spec\n"
        assert captured.out == "" and not out.exists()

    def test_rounds_default_to_d(self, tmp_path):
        assert run_cli("dem", "pheno", "--code", "surface:3", "--p", "0.01",
                       "--out", str(tmp_path)) == 0
        assert load_triplet(tmp_path / "pheno_surface-d3_T3_dcm.txt").rows == (3 + 1) * 4
        manifest = json.loads(
            (tmp_path / "pheno_surface-d3_T3_dcm.txt.manifest.json").read_text())
        assert manifest["config"]["rounds"] == 3


# SHA-256 over the name and bytes of every file an export writes but its
# manifest: the triplet, priors and meta files.  Pinned with the spellings
# `code surface --d 3`, `code bb --l 6 --m 6 --a A --b B`, `code bb --l 9 --m 6`
# and `dem circuit-bb --l 6 --m 6 [--a A --b B]` before both commands took a
# code spec.
EXPORT_DIGESTS = {
    "code-surface3": (
        ("code", "--code", "surface:3"),
        "af989da08d3501587f4ea06259b89e5acf3bda2ee10ffe14cbd9af024423dd7e"),
    "code-bb66-monomials": (
        ("code", "--code", "bb:6,6", "--bb-a", "x3,y2,y1", "--bb-b", "y3,x2,x1"),
        "3fe4cb18db4de64d722df4fed7599dd69342f862ca937fabfe2b37f8b23a0b56"),
    "code-bb96": (
        ("code", "--code", "bb:9,6"),
        "2bb7208997f7e10bea7cdcc320e3fabeb21524774ab0d2a51d1123d887446e73"),
    "pheno-surface3-T2": (
        ("dem", "pheno", "--code", "surface:3", "--rounds", "2", "--p", "0.01"),
        "52396d5345d316ea5154fad823c228d92cc95e7254aec6da435c5ec95b4c0e6d"),
    "pheno-bb66-T1": (
        ("dem", "pheno", "--code", "bb:6,6", "--rounds", "1", "--p", "0.002"),
        "63e600e1947fa0a9a87da0972cff2b8f90dde728d01b10e673d400b5f73e0aac"),
    "circuit-bb66-T1": (
        ("dem", "circuit-bb", "--code", "bb:6,6", "--rounds", "1", "--p", "0.001"),
        "01f546077b06d1483cca55d0ba8d4e021b54c0f95b4aad3c983652973c18ce67"),
    "circuit-bb66-T2-monomials": (
        ("dem", "circuit-bb", "--code", "bb:6,6", "--bb-a", "x3,y2,y1", "--bb-b", "y3,x2,x1",
         "--rounds", "2", "--p", "0.003"),
        "e674cd5328d4454792ce5c73e147b8b1072be9571e6ab14edb5d192878426b75"),
}


@pytest.mark.parametrize("name", EXPORT_DIGESTS)
def test_exports_match_pinned_digests(tmp_path, name):
    argv, digest = EXPORT_DIGESTS[name]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    sha = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        if not path.name.endswith(".manifest.json"):
            sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("code", "--code", "surface:3", "--bb-a", "x3,y1,y2"),
    ("dem", "pheno", "--code", "surface:3", "--bb-b", "y3,x1,x2", "--p", "0.01"),
    ("simulate", "--code", "surface:3", "--bb-a", "x3,y1,y2", "--noise", "code-capacity",
     "--p", "0.02", "--decoder", "bp", "--trials", "5"),
    ("sweep", "--code", "surface:3", "--bb-b", "y3,x1,x2", "--noise", "pheno",
     "--p", "0.02", "--decoders", "bp", "--trials", "5"),
    ("simulate", "--config"),
], ids=["code", "dem", "simulate", "sweep", "config-file"])
def test_monomials_with_a_surface_code_rejected(tmp_path, capsys, argv):
    """Monomials apply to BB codes only: given with a surface code they are
    one error line and exit 1, not dropped while the manifest records them."""
    if argv[-1] == "--config":
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "code": "surface:3", "noise": "code-capacity", "p": 0.02, "decoder": "bp",
            "trials": 5, "bb_a": "x3,y1,y2",
        }))
        argv = (*argv, str(cfg))
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: code 'surface:3': bb_a and bb_b apply only to bb:<l>,<m> codes\n")
    assert captured.out == ""
    assert not out.exists()
    assert not out.with_name(out.name + ".manifest.json").exists()


def readme_cli_examples() -> list[list[str]]:
    """The argv of every ``qldpc-dc`` line in README's CLI block, with
    continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("qldpc-dc ")]


def test_readme_cli_block_shows_every_command():
    commands = {argv[0] for argv in readme_cli_examples()}
    assert commands == {"code", "dem", "decode", "simulate", "sweep"}


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_parse(argv):
    """Every README example names flags the parser knows."""
    build_parser().parse_args(argv)


class TestDecodeCommand:
    def test_roundtrip_decode(self, tmp_path):
        code = build_rotated_surface(3)
        save_triplet(code.hz, tmp_path / "hz.txt")
        save_triplet(code.hx, tmp_path / "hx.txt")
        e = BitVec.from_support(9, [4])
        s = mat_vec_t(e, code.hz)
        (tmp_path / "syn.txt").write_text(
            "\n".join(str(s[i]) for i in range(s.length)) + "\n"
        )
        out = tmp_path / "est.txt"
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "hz.txt"),
            "--ddm", str(tmp_path / "hx.txt"),
            "--syndrome", str(tmp_path / "syn.txt"),
            "--p", "0.05", "--decoder", "bp-dc",
            "--dc-second-priors", "posterior", "--seed", "3",
            "--out", str(out),
        ) == 0
        bits = [int(t) for t in out.read_text().split()]
        est = BitVec.from_support(9, [i for i, b in enumerate(bits) if b])
        assert mat_vec_t(est, code.hz) == s

    def test_dimension_mismatch_diagnostic(self, tmp_path, capsys):
        code = build_rotated_surface(3)
        save_triplet(code.hz, tmp_path / "hz.txt")
        (tmp_path / "syn.txt").write_text("0\n0\n")
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "hz.txt"),
            "--syndrome", str(tmp_path / "syn.txt"),
            "--out", str(tmp_path / "est.txt"),
        ) == 1
        assert "dimension mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("case", ["empty-row", "nontrivial-row"])
    def test_bad_ddm_row_rejected_at_load(self, tmp_path, capsys, case):
        """A DDM row that is empty, or that is not a trivial error of the
        DCM, is an error before any decode, whatever the decoder."""
        code = build_rotated_surface(3)
        save_triplet(code.hz, tmp_path / "hz.txt")
        ddm = tmp_path / "ddm.txt"
        if case == "empty-row":
            rows = [code.hx.row(0), (), code.hx.row(1)]
            save_triplet(SparseBinMatrix(3, code.hx.cols, rows), ddm)
            want = f"error: {ddm}: degeneracy row 1 is empty\n"
        else:  # the check matrix as its own degeneracy matrix
            save_triplet(code.hz, ddm)
            want = (f"error: {ddm}: degeneracy row 0 is not a trivial error of "
                    f"{tmp_path / 'hz.txt'}: its syndrome is not 0\n")
        (tmp_path / "syn.txt").write_text("0\n" * code.hz.rows)
        out = tmp_path / "est.txt"
        for decoder in ("bp", "bp-dc"):
            assert run_cli(
                "decode", "--dcm", str(tmp_path / "hz.txt"), "--ddm", str(ddm),
                "--syndrome", str(tmp_path / "syn.txt"), "--decoder", decoder,
                "--dc-second-priors", "reset", "--out", str(out),
            ) == 1
            assert capsys.readouterr() == ("", want)
            assert not out.exists()
            assert not out.with_name(out.name + ".manifest.json").exists()

    def test_ddm_column_mismatch_diagnostic(self, tmp_path, capsys):
        code = build_rotated_surface(3)
        save_triplet(code.hz, tmp_path / "hz.txt")
        save_triplet(SparseBinMatrix(1, 4, [(0, 1)]), tmp_path / "ddm.txt")
        (tmp_path / "syn.txt").write_text("0\n" * code.hz.rows)
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "hz.txt"), "--ddm", str(tmp_path / "ddm.txt"),
            "--syndrome", str(tmp_path / "syn.txt"), "--out", str(tmp_path / "est.txt"),
        ) == 1
        assert capsys.readouterr().err == (
            f"error: dimension mismatch: {tmp_path / 'ddm.txt'} has 4 columns "
            "but the check matrix has 9\n"
        )

    def test_non_numeric_priors_name_the_file(self, tmp_path, capsys):
        save_triplet(build_rotated_surface(3).hz, tmp_path / "hz.txt")
        (tmp_path / "syn.txt").write_text("1\n0\n0\n0\n")
        priors = tmp_path / "priors.txt"
        priors.write_text("0.1\n" * 8 + "abc\n")
        out = tmp_path / "est.txt"
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "hz.txt"),
            "--syndrome", str(tmp_path / "syn.txt"),
            "--priors", str(priors), "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == f"error: {priors}: priors must be numbers\n"
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    @pytest.mark.parametrize("header", ["2 -5 0", "-1 3 0"])
    def test_negative_size_header_is_one_error_line(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.txt"
        bad.write_text(header + "\n")
        (tmp_path / "syn.txt").write_text("0\n0\n")
        out = tmp_path / "est.txt"
        assert run_cli(
            "decode", "--dcm", str(bad), "--syndrome", str(tmp_path / "syn.txt"),
            "--out", str(out),
        ) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: line 1: negative size\n"
        assert captured.out == ""
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    def test_repeated_triplet_entry_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 9 2\n0 0\n0 0\n")
        (tmp_path / "syn.txt").write_text("0\n0\n0\n0\n")
        out = tmp_path / "est.txt"
        assert run_cli(
            "decode", "--dcm", str(bad), "--syndrome", str(tmp_path / "syn.txt"),
            "--out", str(out),
        ) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: line 3: repeated entry\n"
        assert captured.out == ""
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    def test_osd_inconsistent_syndrome_is_an_error(self, tmp_path, capsys):
        save_triplet(SparseBinMatrix(2, 3, [(0, 1), (0, 1)]), tmp_path / "h.txt")
        (tmp_path / "syn.txt").write_text("1\n0\n")
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "h.txt"),
            "--syndrome", str(tmp_path / "syn.txt"),
            "--decoder", "bp-osd", "--out", str(tmp_path / "e.txt"),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row space" in err

    def test_zero_max_iter_rejected(self, tmp_path, capsys):
        save_triplet(build_rotated_surface(3).hz, tmp_path / "hz.txt")
        (tmp_path / "syn.txt").write_text("1\n0\n0\n0\n")
        out = tmp_path / "est.txt"
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "hz.txt"),
            "--syndrome", str(tmp_path / "syn.txt"),
            "--max-iter", "0", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == "error: max_iter must be >= 1\n"
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    def test_negative_min_sum_scale_rejected(self, tmp_path, capsys):
        save_triplet(build_rotated_surface(3).hz, tmp_path / "hz.txt")
        (tmp_path / "syn.txt").write_text("1\n0\n0\n0\n")
        out = tmp_path / "est.txt"
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "hz.txt"),
            "--syndrome", str(tmp_path / "syn.txt"),
            "--bp-variant", "min-sum", "--min-sum-scale", "-1", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == (
            "error: min_sum_scale must be a finite number > 0, got -1.0\n"
        )
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    @pytest.mark.parametrize("decoder", sim.DECODERS)
    def test_matches_run_trials_decode_path(self, decoder, tmp_path, monkeypatch):
        """`qldpc-dc decode` with a trial's DC seed reproduces the estimate
        and status that run_trials' decode path computes for that trial."""
        cfg = sim.ExperimentConfig(
            code="surface:5", noise="code-capacity", p=0.08, decoder=decoder,
            dc_second_priors="posterior", trials=6, seed=7,
        )
        model = sim.build_model(cfg)
        calls = []
        real_decode = sim.decode

        def recording(*args):
            result = real_decode(*args)
            calls.append((args[2], args[6].rng_seed, result))
            return result

        monkeypatch.setattr(sim, "decode", recording)
        sim.run_trials(cfg, model)
        monkeypatch.setattr(sim, "decode", real_decode)  # the CLI calls it too
        assert len(calls) == cfg.trials

        save_triplet(model.check_matrix, tmp_path / "dcm.txt")
        save_triplet(model.degeneracy_matrix, tmp_path / "ddm.txt")
        (tmp_path / "priors.txt").write_text("".join(f"{p:.17g}\n" for p in model.priors))
        statuses = set()
        for t, (syndrome, dc_seed, result) in enumerate(calls):
            # the recorded syndrome is the trial's own
            assert syndrome == noise.make_trial(model, noise.trial_rng(cfg.seed, t)).syndrome
            (tmp_path / "syn.txt").write_text("".join(f"{b}\n" for b in syndrome.to_dense()))
            out = tmp_path / f"est{t}.txt"
            assert run_cli(
                "decode", "--dcm", str(tmp_path / "dcm.txt"),
                "--ddm", str(tmp_path / "ddm.txt"),
                "--priors", str(tmp_path / "priors.txt"),
                "--syndrome", str(tmp_path / "syn.txt"),
                "--decoder", decoder, "--dc-second-priors", "posterior",
                "--max-iter", str(sim.default_max_iter(cfg, model)),
                "--seed", str(dc_seed), "--out", str(out),
            ) == 0
            bits = [int(b) for b in out.read_text().split()]
            status = json.loads(out.with_name(out.name + ".manifest.json").read_text())["status"]
            assert bits == result.estimate.to_dense().tolist()
            assert status == result.status.value
            statuses.add(status)
        assert statuses - {"converged-first-bp"}, "no trial reached the post-processing"


class TestSimulateAndSweep:
    def test_simulate_byte_identical(self, tmp_path):
        args = [
            "simulate", "--code", "bb:6,6", "--noise", "code-capacity",
            "--p", "0.05", "--decoder", "bp-dc", "--dc-second-priors", "reset",
            "--bp-variant", "min-sum", "--trials", "300", "--seed", "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_threads_identical(self, tmp_path):
        args = [
            "simulate", "--code", "surface:3", "--noise", "code-capacity",
            "--p", "0.05", "--decoder", "bp", "--trials", "300", "--seed", "9",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--threads", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_rows_per_decoder(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--code", "surface:3", "--noise", "code-capacity",
            "--p", "0.01,0.02,0.05", "--decoders", "bp,bp-osd",
            "--trials", "50", "--seed", "0", "--out", str(out),
            "--emit-plot-data",
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 6  # header + 3 rates x 2 decoders
        assert (tmp_path / "sweep_bp.dat").exists()
        assert (tmp_path / "sweep_bp-osd.dat").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code": "surface:3", "noise": "code-capacity", "p": 0.02,
            "decoder": "bp", "trials": 40, "seed": 5,
        }))
        out = tmp_path / "r.csv"
        assert run_cli(
            "simulate", "--config", str(cfg), "--p", "0.03", "--out", str(out)
        ) == 0
        row = out.read_text().strip().split("\n")[1]
        assert row.split(",")[3] == "0.03"  # flag beat the config file

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("bad", [
        {"trials": 1.5}, {"trials": True}, {"threads": 2.5}, {"seed": 1.5},
        {"seed": "abc"}, {"max_iter": 2.5}, {"rounds": 2.5},
        {"max_iter": 0}, {"rounds": 0},
    ], ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
    def test_config_file_counts_must_be_integers(self, tmp_path, capsys, command, bad):
        assert_config_file_rejected(tmp_path, capsys, command, bad)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("bad", [
        {"code": 5}, {"noise": 1}, {"bp_variant": ["min-sum"]}, {"dc_second_priors": 3},
        {"dc_masking": False}, {"bb_a": 5}, {"bb_b": ["x1"]}, {"min_sum_scale": "1.0"},
        {"min_sum_scale": True},
    ], ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
    def test_config_file_fields_must_have_their_types(self, tmp_path, capsys, command, bad):
        assert_config_file_rejected(tmp_path, capsys, command, bad)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("field", ["noise", "bp_variant", "dc_second_priors", "dc_masking"])
    def test_config_file_choices_checked_before_any_model(self, tmp_path, capsys, monkeypatch,
                                                          command, field):
        monkeypatch.setattr(sim, "build_model", lambda cfg: pytest.fail("model built"))
        assert_config_file_rejected(tmp_path, capsys, command, {field: "bogus"})

    @pytest.mark.parametrize("bad", [
        {"p": "0.05"}, {"p": True}, {"p": None}, {"p": [0.05]},
    ], ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
    def test_config_file_p_must_be_a_real_number(self, tmp_path, capsys, bad):
        # sweep takes its rates from --p, never from the config file
        assert_config_file_rejected(tmp_path, capsys, "simulate", bad)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("field", ["code", "noise", "trials"])
    def test_missing_field_is_one_error_line(self, tmp_path, capsys, command, field):
        flags = {"code": "surface:3", "noise": "code-capacity", "trials": "10"}
        del flags[field]
        argv = [command, "--p", "0.02", "--out", str(tmp_path / "r.csv")]
        if command == "simulate":
            argv += ["--decoder", "bp"]
        for name, value in flags.items():
            argv += [f"--{name}", value]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: missing field {field!r}: give --{field} or set it in --config\n"
        )
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unknown_config_field_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "code": "surface:3", "noise": "code-capacity", "p": 0.02, "decoder": "bp",
            "trials": 5, "dc_maskng": "delete-columns",
        }))
        out = tmp_path / "r.csv"
        p_flags = ["--p", "0.02"] if command == "sweep" else []
        assert run_cli(command, "--config", str(cfg), *p_flags, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}: unknown field 'dc_maskng'\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_code_capacity_row_has_no_rounds(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(
            "simulate", "--code", "surface:3", "--noise", "code-capacity", "--rounds", "5",
            "--p", "0.02", "--decoder", "bp", "--trials", "10", "--out", str(out),
        ) == 0
        row = dict(zip(*(line.split(",") for line in out.read_text().split())))
        assert row["T"] == "0"

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(
            "simulate", "--code", "surface:3", "--noise", "code-capacity",
            "--p", "0.02", "--decoder", "bp", "--trials", "30", "--seed", "1",
            "--min-sum-scale", "1.0", "--out", str(out),
        )
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["rng_algorithm"] == "philox4x64"
        assert manifest["tool_version"]
        assert manifest["config"]["points"][0]["trials"] == 30
        assert manifest["min_sum_scale"] == 1.0
        assert manifest["bp_kernel"] == bp.min_sum_kernel()
        assert manifest["bp_kernel"] in ("c", "numpy")

    def test_decoding_manifests_record_numpy(self, tmp_path):
        """Decoded bytes rest on numpy's exp and summation order, so every
        command that decodes records the numpy version."""
        code = build_rotated_surface(3)
        save_triplet(code.hz, tmp_path / "hz.txt")
        (tmp_path / "syn.txt").write_text("1\n0\n0\n0\n")
        outs = [tmp_path / "e.txt", tmp_path / "one.csv", tmp_path / "many.csv"]
        sim_flags = ["--code", "surface:3", "--noise", "code-capacity", "--trials", "5",
                     "--bp-variant", "min-sum"]
        assert run_cli("decode", "--dcm", str(tmp_path / "hz.txt"), "--syndrome",
                       str(tmp_path / "syn.txt"), "--out", str(outs[0])) == 0
        assert run_cli("simulate", *sim_flags, "--p", "0.02", "--decoder", "bp",
                       "--out", str(outs[1])) == 0
        assert run_cli("sweep", *sim_flags, "--p", "0.02,0.04", "--decoders", "bp",
                       "--out", str(outs[2])) == 0
        for out in outs:
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            assert manifest["numpy"] == np.__version__
            assert manifest["bp_kernel"] == bp.min_sum_kernel()

    @pytest.mark.parametrize("command,flags,message", [
        ("sweep", ["--p", "0.01,abc"], "error: --p: 'abc' is not a number"),
        ("sweep", ["--p", "0.01,,0.02"], "error: --p: '' is not a number"),
        ("sweep", ["--p", "abc"], "error: --p: 'abc' is not a number"),
        ("simulate", ["--p", "abc"], "error: --p: 'abc' is not a number"),
        ("simulate", ["--code", "surface:x"], "error: code 'surface:x': 'x' is not an integer"),
        ("simulate", ["--code", "bb:6"],
         "error: code 'bb:6': expected surface:<d> or bb:<l>,<m>"),
        ("simulate", ["--code", "bb:6,y"], "error: code 'bb:6,y': 'y' is not an integer"),
        ("simulate", ["--code", "bb:6,6", "--bb-a", "x3,y1,yy"],
         "error: bad monomial 'yy', expected like 'x3' or 'y2'"),
    ], ids=["p-word", "p-empty", "sweep-p", "simulate-p", "surface-word", "bb-one-size",
        "bb-word", "bb-monomial-word"])
    def test_malformed_rate_or_code_names_it(self, tmp_path, capsys, command, flags, message):
        """A bad ``--p`` list or code spec is one error line naming the flag
        or field and the bad token: exit 1, no output, no manifest."""
        defaults = {"--code": "surface:3", "--p": "0.02"}
        for flag, value in zip(flags[::2], flags[1::2]):
            defaults[flag] = value
        argv = [command, "--noise", "code-capacity", "--trials", "5", "--decoder" if
                command == "simulate" else "--decoders", "bp"]
        for flag, value in defaults.items():
            argv += [flag, value]
        out = tmp_path / "r.csv"
        assert run_cli(*argv, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    def test_dc_decoder_requires_priors_choice(self, tmp_path, capsys):
        code = build_rotated_surface(3)
        save_triplet(code.hz, tmp_path / "hz.txt")
        save_triplet(code.hx, tmp_path / "hx.txt")
        (tmp_path / "syn.txt").write_text("0\n" * 4)
        assert run_cli(
            "decode", "--dcm", str(tmp_path / "hz.txt"),
            "--ddm", str(tmp_path / "hx.txt"),
            "--syndrome", str(tmp_path / "syn.txt"),
            "--decoder", "bp-dc", "--out", str(tmp_path / "e.txt"),
        ) == 1
        assert "dc-second-priors" in capsys.readouterr().err.replace("_", "-")

    def test_nonpositive_threads_rejected(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--code", "surface:3", "--noise", "code-capacity",
            "--p", "0.02", "--decoder", "bp", "--trials", "30", "--threads", "0",
            "--out", str(tmp_path / "r.csv"),
        ) == 1
        assert "error: threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_zero_min_sum_scale_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli(
            "simulate", "--code", "surface:3", "--noise", "code-capacity",
            "--p", "0.02", "--decoder", "bp", "--trials", "30", "--min-sum-scale", "0",
            "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == (
            "error: min_sum_scale must be a finite number > 0, got 0.0\n"
        )
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    @pytest.mark.parametrize("scale", ["0", "-1", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_bad_min_sum_scale_rejected_before_any_model(self, tmp_path, capsys, monkeypatch,
                                                         command, scale):
        """The flag for ``simulate``, the config file for ``sweep``: one
        error line, and no model is built."""
        built = []
        monkeypatch.setattr(sim, "build_model", built.append)
        flags = ["--code", "bb:12,6", "--noise", "circuit-bb", "--rounds", "12",
                 "--trials", "5", "--bp-variant", "min-sum"]
        if command == "simulate":
            argv = [*flags, "--p", "0.003", "--decoder", "bp", f"--min-sum-scale={scale}"]
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"min_sum_scale": float(scale)}))  # Infinity, NaN
            argv = [*flags, "--p", "0.003,0.004", "--decoders", "bp,bp-osd", "--config", str(cfg)]
        out = tmp_path / "r.csv"
        assert run_cli(command, *argv, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: min_sum_scale must be a finite number > 0, got {float(scale)}\n"
        )
        assert captured.out == ""
        assert built == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_emit_plot_data_needs_out(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sim, "build_model", lambda cfg: pytest.fail("model built"))
        argv = [command, "--code", "surface:3", "--noise", "code-capacity", "--trials", "5",
                "--p", "0.02", "--decoder" if command == "simulate" else "--decoders", "bp",
                "--emit-plot-data"]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --emit-plot-data needs --out\n"
        assert captured.out == ""

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLDPC_DC_SEED", "31")
        out = tmp_path / "r.csv"
        run_cli(
            "simulate", "--code", "surface:3", "--noise", "code-capacity",
            "--p", "0.02", "--decoder", "bp", "--trials", "30",
            "--out", str(out),
        )
        assert out.read_text().strip().split("\n")[1].split(",")[-1] == "31"

    def test_malformed_env_seed_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QLDPC_DC_SEED", "abc")
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--code", "surface:3", "--noise", "code-capacity",
                       "--p", "0.02", "--decoder", "bp", "--trials", "5",
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: QLDPC_DC_SEED: 'abc' is not an integer\n"
        assert captured.out == "" and not out.exists()

    def test_malformed_config_json_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"code": "x", }')
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}: not valid JSON: Expecting property name")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "r.jsonl"
        run_cli(
            "simulate", "--code", "surface:3", "--noise", "code-capacity",
            "--p", "0.02", "--decoder", "bp", "--trials", "30", "--seed", "1",
            "--format", "jsonl", "--out", str(out),
        )
        rec = json.loads(out.read_text().strip())
        assert rec["seed"] == 1
