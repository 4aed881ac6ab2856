"""C kernels, compiled on first use.

``load(name)`` returns ``<name>.c``, the source beside this module, as a
``ctypes`` library.  The first process that asks for it compiles it with
the C compiler Python was built with (``sysconfig``'s ``CC``) into the
per-user cache directory, ``$XDG_CACHE_HOME/heckelis`` or
``~/.cache/heckelis``.  The library is named by a CRC of the source and
the flags, so an edited source gets a new library, and later processes
only load it.  When any step fails (no compiler, a compile error, a cache
that cannot be written) ``load`` returns None and the caller runs its
Python path, which is also the kernel's test oracle.

The package imports this module only when a kernel is first asked for, so
importing the command line loads neither it nor ``subprocess`` nor
``sysconfig``.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path

_FLAGS = ("-O2", "-shared", "-fPIC")
_libraries: dict[str, ctypes.CDLL | None] = {}  # each name is loaded once per process


def _compile(source: Path, target: Path) -> None:
    import shlex
    import subprocess
    import sysconfig

    compiler = sysconfig.get_config_var("CC")
    if not compiler:
        raise OSError("Python names no C compiler")
    target.parent.mkdir(parents=True, exist_ok=True)
    # built beside the target and renamed into place, so that a process that
    # finds the library finds it whole, whoever else is building it
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([*shlex.split(compiler), *_FLAGS, "-o", str(tmp), str(source)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    except subprocess.SubprocessError as err:
        raise OSError(f"compiling {source.name} failed: {err}") from err
    finally:
        tmp.unlink(missing_ok=True)


def _build(name: str) -> ctypes.CDLL | None:
    source = Path(__file__).with_name(name + ".c")
    try:
        crc = zlib.crc32(" ".join(_FLAGS).encode(), zlib.crc32(source.read_bytes()))
        cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        library = Path(cache, "heckelis", f"{name}-{crc:08x}.so")
        if not library.exists():
            _compile(source, library)
        return ctypes.CDLL(str(library))
    except OSError:
        return None


def load(name: str) -> ctypes.CDLL | None:
    """The compiled ``<name>.c``, or None if it cannot be built or loaded."""
    if name not in _libraries:
        _libraries[name] = _build(name)
    return _libraries[name]
