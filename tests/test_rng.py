import numpy as np

from irslink.rng import run_seed, run_seeds, uniform_at, uniform_block
from scalar_reference import CounterStream


def test_scalar_and_vector_run_seeds_agree():
    vec = run_seeds(12345, 50)
    for r in range(50):
        assert int(vec[r]) == run_seed(12345, r)


def test_scalar_and_vector_uniforms_agree():
    seeds = run_seeds(7, 5)
    block = uniform_block(seeds, 8)
    for r in range(5):
        for j in range(8):
            assert block[r, j] == uniform_at(int(seeds[r]), j)


def test_counter_stream_is_positional():
    s = CounterStream(99)
    first = s.uniforms(4)
    second = s.uniforms(4)
    fresh = CounterStream(99).uniforms(8)
    assert np.array_equal(np.concatenate([first, second]), fresh)


def test_uniform_block_offset_matches_stream():
    seeds = run_seeds(1, 3)
    tail = uniform_block(seeds, 5, first_draw=10)
    full = uniform_block(seeds, 15)
    assert np.array_equal(tail, full[:, 10:])


def test_values_in_unit_interval_and_spread():
    u = uniform_block(run_seeds(2024, 200), 100).ravel()
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_different_runs_decorrelate():
    u = uniform_block(run_seeds(5, 2), 10_000)
    corr = np.corrcoef(u[0], u[1])[0, 1]
    assert abs(corr) < 0.05
