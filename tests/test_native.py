"""The loader of the compiled kernels: built once per cache, loaded on
demand, and kept out of every process that does not ask for a kernel."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from heckelis import native

from conftest import c_compiler

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def empty_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_libraries", {})
    return tmp_path / "heckelis"


@pytest.fixture
def compiler():
    command = c_compiler()
    if command is None:
        pytest.skip("no C compiler on PATH, so no kernel can be built")
    return command


def test_second_load_does_not_compile(compiler, empty_cache, monkeypatch):
    runs = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: runs.append(a) or run(*a, **k))
    assert native.load("deal") is not None
    assert len(runs) == 1
    assert [p.suffix for p in empty_cache.iterdir()] == [".so"]  # no temporary file is left
    monkeypatch.setattr(native, "_libraries", {})  # as in a new process
    assert native.load("deal") is not None
    assert len(runs) == 1


def test_missing_compiler_loads_nothing(missing_compiler):
    assert native.load("deal") is None


def test_source_compiles_without_warnings(compiler, tmp_path):
    source = Path(native.__file__).with_name("deal.c")
    result = subprocess.run(
        [*shlex.split(compiler), *native._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "deal.so"), str(source)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def in_fresh_interpreter(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_importing_the_cli_loads_no_kernel_machinery():
    out = in_fresh_interpreter(
        "import sys, heckelis.cli\n"
        "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
        "print([m for m in ('heckelis.native', 'subprocess', 'sysconfig', 'hashlib',"
        " 'numpy.random') if m in sys.modules], 'deal-' in maps)\n")
    assert out == "[] False\n"


def test_compiled_dealer_needs_no_numpy_random(compiler):
    out = in_fresh_interpreter(
        "import sys\n"
        "from heckelis.patience import deck_simulation\n"
        "print(deck_simulation(13, 4, 50, 1).dealer,"
        " [m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules])\n")
    assert out == "compiled []\n"
