"""C kernels, compiled on first use.

``load(name)`` returns ``<name>.c``, the source beside this module, as a
``ctypes`` library, with the signatures of its functions declared once, as
``_SIGNATURES`` gives them.  There is one such source, ``sampling.c``:
numpy's ``SeedSequence`` hash, Philox and numpy's draw rules, with the deck
dealer of ``patience``, the word and shape kernels of ``asymptotics`` and
the word drawer of ``words`` (``verify``'s random words) built on them.
The first process that asks for it compiles it with the C compiler Python
was built with (``sysconfig``'s ``CC``) into the per-user cache directory,
``$XDG_CACHE_HOME/heckelis`` or ``~/.cache/heckelis``.  The library is
named by a CRC of the source and the flags, so an edited source gets a new
library, later processes only load it, and a build deletes the libraries
that other sources of the same name built over a day ago.  When any step
fails (no compiler on PATH, a compile error, a cache that cannot be
written) ``load`` returns None and the caller runs its Python path, which
is also the kernel's test oracle; where no compiler is on PATH, it runs no
process and makes no directory.

The package imports this module only when a kernel is first asked for, so
importing the command line loads neither it nor ``subprocess`` nor
``sysconfig``.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import time
import zlib
from pathlib import Path

_FLAGS = ("-O2", "-shared", "-fPIC")
_STALE_SECONDS = 24 * 3600  # the age at which another source's library is deleted
_libraries: dict[str, ctypes.CDLL | None] = {}  # each name is loaded once per process

_i64, _u64, _pointer = ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p
# function -> (restype, argtypes), for each source: a seed is passed as
# ``rng.seed_words`` and a trial as its index
_SIGNATURES = {
    "sampling": {
        "trial_key": (None, (_pointer, _u64, _pointer)),
        "deal_decks": (ctypes.c_int, (_pointer, _u64, _u64, _i64, _i64, _pointer, _pointer)),
        "draw_word": (None, (_pointer, _u64, _i64, _i64, _pointer)),
        "word_statistics": (ctypes.c_int, (_pointer, _u64, _i64, _i64, _i64, _i64, _pointer)),
        "tableau_new": (_pointer, ()),
        "tableau_free": (None, (_pointer,)),
        "tableau_lengths": (ctypes.POINTER(_i64), (_pointer,)),
        "insert_word": (_i64, (_pointer, _pointer, _u64, _i64, _i64, _i64)),
    },
}


def _compile(source: Path, target: Path) -> None:
    import shlex
    import shutil
    import subprocess
    import sysconfig

    command = shlex.split(sysconfig.get_config_var("CC") or "")
    if not command or shutil.which(command[0]) is None:
        raise OSError("no C compiler on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    # built beside the target and renamed into place, so that a process that
    # finds the library finds it whole, whoever else is building it
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([*command, *_FLAGS, "-o", str(tmp), str(source)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    except subprocess.SubprocessError as err:
        raise OSError(f"compiling {source.name} failed: {err}") from err
    finally:
        tmp.unlink(missing_ok=True)


def _remove_stale(library: Path, name: str) -> None:
    """Delete the libraries beside ``library`` that other sources of
    ``name`` built over a day ago; one that cannot be deleted stays.

    A younger one may belong to another checkout still in use, such as the
    parent commit that a benchmark runs in turns with a change; deleting
    it would make the two checkouts rebuild on every run."""
    cutoff = time.time() - _STALE_SECONDS
    for stale in library.parent.glob(f"{name}-????????.so"):
        with contextlib.suppress(OSError):
            if stale != library and stale.stat().st_mtime < cutoff:
                stale.unlink()


def _build(name: str) -> ctypes.CDLL | None:
    source = Path(__file__).with_name(name + ".c")
    try:
        crc = zlib.crc32(" ".join(_FLAGS).encode(), zlib.crc32(source.read_bytes()))
        cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        library = Path(cache, "heckelis", f"{name}-{crc:08x}.so")
        if not library.exists():
            _compile(source, library)
            _remove_stale(library, name)
        loaded = ctypes.CDLL(str(library))
    except OSError:
        return None
    for function, (restype, argtypes) in _SIGNATURES.get(name, {}).items():
        declared = getattr(loaded, function)
        declared.restype, declared.argtypes = restype, argtypes
    return loaded


def load(name: str) -> ctypes.CDLL | None:
    """The compiled ``<name>.c``, its signatures declared, or None if it
    cannot be built or loaded."""
    if name not in _libraries:
        _libraries[name] = _build(name)
    return _libraries[name]
