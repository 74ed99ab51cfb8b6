"""Decoding toolkit for quantum LDPC codes: BP with degeneracy-cutting
post-processing, OSD baselines, detector error models, and a seeded
Monte Carlo harness."""

__version__ = "0.1.0"

from .bp import BpDecoder, BpOutput, TannerGraph
from .codes import (
    BbParams,
    CssCode,
    bb_params,
    build_bb,
    build_rotated_surface,
    compute_logicals,
)
from .detmodel import (
    DetectorModel,
    build_bb_circuit_dcm,
    build_bb_circuit_ddm,
    build_bb_circuit_model,
    build_pheno_dcm,
    build_pheno_ddm,
    build_pheno_model,
    code_capacity_model,
    combine_odd_parity,
    find_low_weight_trivial,
)
from .gf2 import (
    BitVec,
    SparseBinMatrix,
    in_rowspace,
    load_triplet,
    mat_mat_t,
    mat_vec_t,
    rank,
    save_triplet,
    solve,
)
from .noise import TrialSample, make_trial, sample_error, trial_rng
from .postproc import (
    DcConfig,
    DecodeResult,
    DecodeStatus,
    MaskingMode,
    SecondRunPriors,
    bp_dc_decode,
    bp_dc_osd_decode,
    bp_osd_decode,
    dc_cut_indices,
    osd0_decode,
    run_pipeline,
)
from .sim import (
    ExperimentConfig,
    FailureStats,
    Outcome,
    check_success,
    run_trials,
    wilson_interval,
)
