"""The loader of the compiled kernels: built once per cache, loaded on
demand, and kept out of every process that does not ask for a kernel."""

import os
import shlex
import subprocess
import sys
import time
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
    assert native.load("sampling") is not None
    assert len(runs) == 1
    assert [p.suffix for p in empty_cache.iterdir()] == [".so"]  # no temporary file is left
    monkeypatch.setattr(native, "_libraries", {})  # as in a new process
    assert native.load("sampling") is not None
    assert len(runs) == 1


def test_build_deletes_stale_libraries(compiler, empty_cache):
    empty_cache.mkdir()
    # what earlier sources of the same name left two days ago, what another
    # checkout of it built an hour ago, and what no build of it owns
    stale = [empty_cache / "sampling-0123abcd.so", empty_cache / "sampling-ffffffff.so"]
    recent = [empty_cache / "sampling-00000000.so"]
    other = [empty_cache / "deal-0123abcd.so", empty_cache / "sampling-notes.txt"]
    now = time.time()
    for path, age in [*((p, 2 * 86400) for p in stale + other), *((p, 3600) for p in recent)]:
        path.write_bytes(b"")
        os.utime(path, (now - age, now - age))
    assert native.load("sampling") is not None
    (built,) = set(empty_cache.glob("sampling-????????.so")) - set(recent)
    assert sorted(empty_cache.iterdir()) == sorted([built, *recent, *other])


def test_missing_compiler_loads_nothing(missing_compiler, monkeypatch):
    runs = []
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: runs.append(a))
    assert native.load("sampling") is None
    assert runs == []
    assert list(Path(os.environ["XDG_CACHE_HOME"]).iterdir()) == []  # no empty cache directory


def test_source_compiles_without_warnings(compiler, tmp_path):
    source = Path(native.__file__).with_name("sampling.c")
    result = subprocess.run(
        [*shlex.split(compiler), *native._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "sampling.so"), str(source)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def in_fresh_interpreter(script: str, stream: str = "stdout") -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    return getattr(result, stream)


def test_importing_the_cli_loads_no_kernel_machinery():
    out = in_fresh_interpreter(
        "import sys, heckelis.cli\n"
        "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
        "print([m for m in ('heckelis.native', 'subprocess', 'sysconfig', 'hashlib',"
        " 'numpy') if m in sys.modules], 'sampling-' in maps)\n")
    assert out == "[] False\n"


def test_compiled_sweep_needs_no_numpy_random(compiler):
    out = in_fresh_interpreter(
        "import sys\n"
        "from heckelis.asymptotics import sweep_at\n"
        "print(sweep_at(300, 10, 20, 1).kernel, sweep_at(300, 10, 20, 1, profile=True).kernel,"
        " [m for m in ('numpy', 'secrets', '_hashlib') if m in sys.modules])\n")
    assert out == "compiled compiled []\n"


def test_compiled_dealer_needs_no_numpy_random(compiler):
    out = in_fresh_interpreter(
        "import sys\n"
        "from heckelis.patience import deck_simulation\n"
        "print(deck_simulation(13, 4, 50, 1).dealer,"
        " [m for m in ('numpy', 'secrets', '_hashlib') if m in sys.modules])\n")
    assert out == "compiled []\n"


def test_compiled_commands_never_load_numpy(compiler, tmp_path):
    # every command whose trials run compiled, verify's random words among
    # them, and exact, which draws nothing
    out = in_fresh_interpreter(
        "import sys\n"
        "from heckelis.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [main(argv) for argv in (\n"
        "    ['sweep', '--n', '1000', '--alpha-grid', '0.5', '1', '--trials', '70',"
        " '--seed', '3', '--threads', '1', '--out', out + '/sweep.csv'],\n"
        "    ['sample', '--n', '300', '--q', '8', '--trials', '70', '--seed', '3',"
        " '--out', out + '/sample.csv'],\n"
        "    ['patience', '--ranks', '13', '--copies', '4', '--trials', '2000', '--seed', '3',"
        " '--out', out + '/deck'],\n"
        "    ['exact', '--n', '4', '--q', '3'],\n"
        "    ['verify', '--level', 'fast'],\n"
        ")]\n"
        "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n", stream="stderr")
    assert out == "[0, 0, 0, 0, 0] False\n"
