"""Suite options.  ``--no-compiler`` runs the whole suite as on a machine
without a C compiler: every REM run takes the Python loop, every LAD
component evaluates in Python, and the tests that need the compiled kernel
are skipped.  It takes effect before collection, so that the instances the
test modules build when imported are built without the library too."""

import shutil
import tempfile

import pytest

from remvi import _kernel

_UNDO = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption("--no-compiler", action="store_true",
                     help="run as if no C compiler were installed")


def pytest_configure(config):
    if not config.getoption("--no-compiler"):
        return
    # an empty kernel cache: a cached build would load without a compiler
    cache = tempfile.mkdtemp(prefix="remvi-cache-")
    patch = pytest.MonkeyPatch()
    patch.setattr(_kernel, "CC", "no-such-compiler")
    patch.setenv("XDG_CACHE_HOME", cache)
    _kernel._library.cache_clear()
    config.stash[_UNDO] = (patch, cache)


def pytest_unconfigure(config):
    undo = config.stash.get(_UNDO, None)
    if undo is None:
        return
    patch, cache = undo
    patch.undo()
    shutil.rmtree(cache, ignore_errors=True)
    _kernel._library.cache_clear()


@pytest.fixture
def compiler():
    """Skips the test where no C compiler is found (looked up when the test
    runs, after the suite's ``--no-compiler`` option took effect)."""
    if shutil.which(_kernel.CC) is None:
        pytest.skip("no C compiler")
