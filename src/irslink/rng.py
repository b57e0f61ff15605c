"""Counter-based random numbers for reproducible Monte Carlo.

Python's built-in generators are stateful streams, which makes "run r out of
10,000" depend on everything drawn before it.  Here every variate is a pure
function of (master_seed, run_index, draw_index), so runs can be evaluated in
any order, in parallel, or vectorised, and always produce the same bits.

Scheme (all arithmetic mod 2**64):

    run_seed(master, r) = finalize(master + (r + 1) * PHI_A)
    u(seed, j)          = (finalize(seed + (j + 1) * PHI_B) >> 11) / 2**53

where ``finalize`` is the splitmix64 output permutation: the run seeds are
splitmix64's outputs from state ``master``.  Draw j is the j-th variate
consumed within one run (see the simulator for the draw layout).
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = "splitmix64-counter-v1"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHI_A = 0x9E3779B97F4A7C15
_PHI_B = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _finalize_u64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64's output permutation, in place on the uint64 array ``z``;
    ``t`` is scratch of the same shape."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def run_seeds(master_seed: int, n_runs: int, first_run: int = 0) -> np.ndarray:
    """Seeds of runs first_run..first_run+n_runs-1, shape (n_runs,)."""
    z = np.arange(first_run + 1, first_run + n_runs + 1, dtype=np.uint64)
    z *= np.uint64(_PHI_A)
    z += np.uint64(master_seed & _MASK64)
    return _finalize_u64(z, np.empty_like(z))


def uniform_block(seeds: np.ndarray, n_draws: int, first_draw: int = 0, out=None, scratch=None,
                  planes: int = 1) -> np.ndarray:
    """Uniforms of draws first_draw .. first_draw+n_draws-1 of each of ``seeds``.

    With ``planes`` = 1 they are u[i, j] = u(seeds[i], first_draw + j), shape
    (len(seeds), n_draws).  With ``planes`` = p (dividing n_draws) draw
    first_draw + p*j + k of seed i goes to plane k, u[k, i, j], shape
    (p, len(seeds), n_draws // p): the same values in another place in memory,
    so that interleaved draws (the y and z of each scatter point) land in one
    contiguous plane each.

    ``out`` (float64) and ``scratch`` (uint64), both of that shape, are
    optional work arrays: with both given the call allocates nothing of the
    result's size, and ``out`` is returned.
    """
    n = len(seeds)
    shape = (n, n_draws) if planes == 1 else (planes, n, n_draws // planes)
    z = np.empty(shape, np.uint64) if scratch is None else scratch
    u = np.empty(shape) if out is None else out
    # the counters in plane layout: j[k, m] = first_draw + p*m + k + 1
    j = np.arange(first_draw + 1, first_draw + n_draws + 1, dtype=np.uint64).reshape(-1, planes).T.copy()
    j *= np.uint64(_PHI_B)
    np.add(seeds.astype(np.uint64, copy=False)[:, None], j[:, None, :], out=z.reshape(planes, n, n_draws // planes))
    _finalize_u64(z, u.view(np.uint64))  # u is free until the last step
    z >>= np.uint64(11)
    return np.multiply(z, 2.0 ** -53, out=u)
