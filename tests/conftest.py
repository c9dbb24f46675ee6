"""Suite options.  ``--no-compiler`` runs the whole suite as on a machine
without a C compiler: every REM run takes the Python loop, and the tests
that need the compiled kernel are skipped."""

import shutil

import pytest

from remvi import _kernel


def pytest_addoption(parser):
    parser.addoption("--no-compiler", action="store_true",
                     help="run as if no C compiler were installed")


@pytest.fixture(autouse=True, scope="session")
def _compiler(request, tmp_path_factory):
    if not request.config.getoption("--no-compiler"):
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "CC", "no-such-compiler")
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        _kernel._library.cache_clear()
        yield
    _kernel._library.cache_clear()


@pytest.fixture
def compiler():
    """Skips the test where no C compiler is found (looked up when the test
    runs, after the suite's ``--no-compiler`` option took effect)."""
    if shutil.which(_kernel.CC) is None:
        pytest.skip("no C compiler")
