import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from irslink import rng

_hypothesis_home = None


def pytest_configure(config):
    # hypothesis caches the constants it scans from the sources at collection,
    # even with database=None; keep that cache out of the working tree
    global _hypothesis_home
    _hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_hypothesis_home, ignore_errors=True)


def _count_draws(monkeypatch, counts) -> list:
    """The run count of each generator call for which ``counts(first_draw,
    planes)`` holds, from here on in the test."""
    draws = []
    block = rng.uniform_block

    def counted(seeds, n_draws, first_draw=0, **kwargs):
        if counts(first_draw, kwargs.get("planes", 1)):
            draws.append(len(seeds))
        return block(seeds, n_draws, first_draw, **kwargs)

    monkeypatch.setattr(rng, "uniform_block", counted)
    return draws


@pytest.fixture
def position_draws(monkeypatch) -> list:
    """The run count of each scatter-position draw (the generator's two-plane
    calls) from here on in the test."""
    return _count_draws(monkeypatch, lambda first_draw, planes: planes == 2)


@pytest.fixture
def phase_draws(monkeypatch) -> list:
    """The run count of each ray-phase draw (the generator's calls from draw
    2 n_rays on, the only ones not from draw 0) from here on in the test."""
    return _count_draws(monkeypatch, lambda first_draw, planes: first_draw > 0)
