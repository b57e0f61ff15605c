"""Counter-based random numbers for reproducible Monte Carlo.

Python's built-in generators are stateful streams, which makes "run r out of
10,000" depend on everything drawn before it.  Here every variate is a pure
function of (master_seed, run_index, draw_index), so runs can be evaluated in
any order, in parallel, or vectorised, and always produce the same bits.

Scheme (all arithmetic mod 2**64):

    run_seed(master, r) = finalize(master + (r + 1) * PHI_A)
    u(seed, j)          = finalize(seed + (j + 1) * PHI_B) / 2**64

where ``finalize`` is the splitmix64 output permutation.  Draw j is the j-th
variate consumed within one run (see the simulator for the draw layout).
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = "splitmix64-counter-v1"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHI_A = 0x9E3779B97F4A7C15
_PHI_B = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _finalize_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed derived from the master seed and the run index."""
    return _finalize_int((master_seed + (run_index + 1) * _PHI_A) & _MASK64)


def uniform_at(seed: int, draw_index: int) -> float:
    """The draw_index-th uniform variate in [0, 1) of the stream ``seed``."""
    bits = _finalize_int((seed + (draw_index + 1) * _PHI_B) & _MASK64)
    return (bits >> 11) * 2.0 ** -53


def _finalize_u64(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def run_seeds(master_seed: int, n_runs: int) -> np.ndarray:
    """Vectorised ``run_seed`` for runs 0..n_runs-1, shape (n_runs,)."""
    r = np.arange(1, n_runs + 1, dtype=np.uint64)
    base = np.uint64(master_seed & _MASK64) + r * np.uint64(_PHI_A)
    return _finalize_u64(base)


def uniform_block(seeds: np.ndarray, n_draws: int, first_draw: int = 0) -> np.ndarray:
    """Uniforms u[i, j] = uniform_at(seeds[i], first_draw + j), shape (len(seeds), n_draws)."""
    j = np.arange(first_draw + 1, first_draw + n_draws + 1, dtype=np.uint64)
    z = seeds.astype(np.uint64)[:, None] + j[None, :] * np.uint64(_PHI_B)
    bits = _finalize_u64(z)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

