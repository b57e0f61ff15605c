import ast
from pathlib import Path

import numpy as np

import scalar_reference
from irslink.rng import run_seeds, uniform_block
from scalar_reference import CounterStream, run_seed, uniform_at

# splitmix64 seeded with state 1234567: its first five outputs, as published
# with the reference implementation
SPLITMIX64_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_both_generators_reproduce_splitmix64_reference_outputs():
    assert [int(s) for s in run_seeds(1234567, 5)] == SPLITMIX64_1234567
    assert [run_seed(1234567, r) for r in range(5)] == SPLITMIX64_1234567


def test_oracle_imports_no_library_numerics():
    tree = ast.parse(Path(scalar_reference.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "irslink":
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "irslink"}
    allowed = {
        ("irslink.errors", "DegenerateGeometryError"),
        ("irslink.errors", "InvalidParameterError"),
        ("irslink.scenario", "Position3D"),
        ("irslink.scenario", "ScenarioConfig"),
    }
    assert imported and imported <= allowed, sorted(imported - allowed)


def test_scalar_and_vector_run_seeds_agree():
    vec = run_seeds(12345, 50)
    for r in range(50):
        assert int(vec[r]) == run_seed(12345, r)


def test_first_run_continues_the_run_sequence():
    for master in (0, 42, 2**64 - 1, 2**64 - 3):
        for first, n in ((0, 5), (1, 4), (3276, 3), (2**63, 2)):
            block = run_seeds(master, n, first)
            if first < 10_000:
                assert np.array_equal(block, run_seeds(master, first + n)[first:])
            for i in range(n):
                assert int(block[i]) == run_seed(master, first + i)


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
