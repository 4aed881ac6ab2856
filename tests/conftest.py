import shlex
import shutil
import sys
import sysconfig
from pathlib import Path

import hypothesis.strategies as st
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from heckelis import asymptotics, native, patience
from heckelis.tableaux import YoungDiagram
from heckelis.words import Word


def c_compiler() -> str | None:
    """The C compiler the kernels are built with, if it is on PATH."""
    command = sysconfig.get_config_var("CC")
    return command if command and shutil.which(shlex.split(command)[0]) else None


@pytest.fixture
def compiled_dealer():
    """The test runs the compiled deck dealer; it skips only where no C
    compiler is on PATH, and fails if one is but the dealer is not built."""
    if c_compiler() is None:
        pytest.skip("no C compiler on PATH, so the compiled dealer cannot be built")
    assert patience._compiled_dealer() is not None, "a C compiler is on PATH, but sampling.c did not load"
    return "compiled"


@pytest.fixture
def numpy_dealer(monkeypatch):
    """The test runs the numpy dealer: the loader is forced to None."""
    monkeypatch.setattr(patience, "_compiled_dealer", lambda: None)
    return "numpy"


@pytest.fixture
def compiled_kernel():
    """The test runs the compiled sampling kernels; it skips only where no C
    compiler is on PATH, and fails if one is but the kernels are not built."""
    if c_compiler() is None:
        pytest.skip("no C compiler on PATH, so the compiled kernels cannot be built")
    assert asymptotics._compiled() is not None, "a C compiler is on PATH, but sampling.c did not load"
    return "compiled"


@pytest.fixture
def python_kernel(monkeypatch):
    """The test runs the Python sampling kernels: the loader is forced to None."""
    monkeypatch.setattr(asymptotics, "_compiled", lambda: None)
    return "python"


@pytest.fixture
def missing_compiler(monkeypatch, tmp_path_factory):
    """The test runs with an empty kernel cache and a C compiler command
    that does not exist, so every kernel falls back to its Python path (the
    value names the deck dealer that runs)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
    monkeypatch.setattr(native, "_libraries", {})
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "heckelis-no-such-cc" if name == "CC" else config_var(name))
    return "numpy"


@pytest.fixture(params=["compiled_dealer", "numpy_dealer", "missing_compiler"])
def dealer(request):
    """Each way a deck simulation can run; the value is the dealer that runs."""
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["compiled_kernel", "python_kernel", "missing_compiler"])
def kernel(request):
    """Each way a sampler can run; the value is the kernel that runs."""
    request.getfixturevalue(request.param)
    return "compiled" if request.param == "compiled_kernel" else "python"


@st.composite
def words(draw, max_n=10, max_q=5, min_n=0):
    q = draw(st.integers(1, max_q))
    n = draw(st.integers(min_n, max_n))
    letters = tuple(draw(st.lists(st.integers(1, q), min_size=n, max_size=n)))
    return Word(letters, q)


@st.composite
def partitions(draw, max_size=8):
    remaining = draw(st.integers(0, max_size))
    parts = []
    cap = remaining
    while remaining > 0:
        p = draw(st.integers(1, min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return YoungDiagram(tuple(parts))
