import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

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
