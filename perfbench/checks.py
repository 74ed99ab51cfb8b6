"""Output checks, computed apart from the program with dense numpy.

Matrices and vectors are read out of the program's objects once
(``row_supports`` and the raw bitmask of a ``BitVec``); every product,
parity and comparison below is plain numpy.  Each check returns a list of
failure messages, empty when the check passes.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def dense_matrix(m) -> np.ndarray:
    out = np.zeros((m.rows, m.cols), dtype=np.uint8)
    for i, support in enumerate(m.row_supports):
        out[i, list(support)] = 1
    return out


def dense_vec(v) -> np.ndarray:
    raw = v.bits.to_bytes((v.length + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: v.length]


def parity(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """h @ x over GF(2), for a 0/1 vector x."""
    return (h[:, np.flatnonzero(x)].sum(axis=1) & 1).astype(np.uint8)


def sample_error(priors: np.ndarray, master_seed: int, trial: int) -> np.ndarray:
    """The trial's error, drawn from its Philox stream (key = seed, trial)."""
    key = np.array([master_seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return (rng.random(priors.shape[0]) < priors).astype(np.uint8)


class ModelView:
    """Dense copies of one detector model's matrices."""

    def __init__(self, model):
        self.h = dense_matrix(model.check_matrix)
        self.obs = dense_matrix(model.observables)
        self.priors = np.asarray(model.priors, dtype=float)
        ddm = model.degeneracy_matrix
        self.ddm_lengths = None
        if ddm is not None:
            self.ddm_lengths = np.array([len(s) for s in ddm.row_supports], dtype=np.intp)
            self.ddm_cols = np.array([j for s in ddm.row_supports for j in s], dtype=np.intp)
            self.ddm_starts = np.concatenate(([0], np.cumsum(self.ddm_lengths)[:-1]))


def check_ddm_trivial(view: ModelView, chunk: int = 512) -> list[str]:
    """Every DDM row d is a trivial error: H d = 0 and L d = 0."""
    if view.ddm_lengths is None:
        return []
    if not view.ddm_lengths.all():
        return [f"ddm row {int(np.argmin(view.ddm_lengths))} is empty"]
    fails = []
    stacked = np.vstack([view.h, view.obs])
    for lo in range(0, len(view.ddm_lengths), chunk):
        hi = min(lo + chunk, len(view.ddm_lengths))
        a = view.ddm_starts[lo]
        b = view.ddm_starts[hi] if hi < len(view.ddm_starts) else len(view.ddm_cols)
        cols = view.ddm_cols[a:b]
        syn = np.add.reduceat(stacked[:, cols], view.ddm_starts[lo:hi] - a, axis=1) & 1
        for k in np.flatnonzero(syn.any(axis=0)):
            fails.append(f"ddm row {lo + k} is not a trivial error")
    return fails


def check_trial(view: ModelView, decoder: str, master_seed: int, trial: int,
                error: np.ndarray, syndrome: np.ndarray, estimate: np.ndarray,
                status: str, cuts) -> list[str]:
    """Per-trial checks on one decode's inputs and outputs."""
    tag = f"trial {master_seed}:{trial}"
    fails = []
    if not np.array_equal(parity(view.h, error), syndrome):
        fails.append(f"{tag}: sampled syndrome != H e")
    solved = np.array_equal(parity(view.h, estimate), syndrome)
    if decoder == "bp-osd" and not solved:
        fails.append(f"{tag}: bp-osd estimate misses the syndrome")
    elif status != "failed" and not solved:
        fails.append(f"{tag}: {status} estimate misses the syndrome")
    if "dc" in decoder and status != "converged-first-bp":
        cut = np.zeros(view.h.shape[1], dtype=bool)
        cut[list(cuts)] = True
        missed = np.flatnonzero(~np.logical_or.reduceat(cut[view.ddm_cols], view.ddm_starts))
        if missed.size:
            fails.append(f"{tag}: DC cut set misses {missed.size} DDM rows, first {missed[0]}")
    return fails


def rescore(view: ModelView, error: np.ndarray, estimate: np.ndarray) -> str:
    """Outcome of one trial from error ^ estimate against H and L."""
    if not np.array_equal(parity(view.h, estimate), parity(view.h, error)):
        return "nonconvergent"
    if parity(view.obs, error ^ estimate).any():
        return "logical"
    return "success"


def check_counts(outcomes: list[str], logical: int, nonconv: int, what: str) -> list[str]:
    """Re-scored outcomes against the counts run_trials reported."""
    mine = (outcomes.count("logical"), outcomes.count("nonconvergent"))
    if mine != (logical, nonconv):
        return [f"{what}: run_trials counted (logical, nonconv) = {(logical, nonconv)}, "
                f"re-scored {mine}"]
    return []
