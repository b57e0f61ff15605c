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


@pytest.fixture
def position_draws(monkeypatch) -> list:
    """The run count of each scatter-position draw (the generator's two-plane
    calls) from here on in the test."""
    draws = []
    block = rng.uniform_block

    def counted(seeds, *args, **kwargs):
        if kwargs.get("planes") == 2:
            draws.append(len(seeds))
        return block(seeds, *args, **kwargs)

    monkeypatch.setattr(rng, "uniform_block", counted)
    return draws
