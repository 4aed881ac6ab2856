"""In-process span recorder for the traced benchmark run.

The recorder replaces the public functions listed in ``WRAPPED`` wherever a
``heckelis.*`` module binds them (module attributes and tuples such as
``verification.ALL_SUITES``), and ``Word.__post_init__`` on the class, with
thin wrappers that record one span per call.  Nothing under ``src/`` is
edited; ``restore`` puts every original back.

Spans live in flat arrays while the command runs and are written out once,
at the end.  Each span has a name, a start, an end, its parent's index (-1
at the root) and the run id shared by all spans of one traced command.  A
span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute) of each traced function; the span name is
# "<module>.<attribute>" with "Word" standing for Word.__post_init__.
WRAPPED = (
    ("insertion", "heckeshape"),
    ("insertion", "hecke"),
    ("insertion", "hecke_inverse"),
    ("words", "random_word"),
    ("words", "Word"),
    ("words", "lis"),
    ("rng", "generator"),
    ("rng", "trial_stream"),
    ("asymptotics", "sweep_at"),
    ("asymptotics", "sup_norm_distance"),
    ("tableaux", "conjugate"),
    ("kjdt", "k_rectify"),
    ("measures", "exact_plancherel_hecke"),
    ("patience", "play_greedy"),
    ("patience", "deck_simulation"),
)

SUITES = (
    "check_normalizer_identity",
    "check_first_row_column",
    "check_roundtrip",
    "check_pushforward",
    "check_rectification",
    "check_patience",
    "check_growth_process",
    "check_schensted_agreement",
)


class Tracer:
    """Records spans of the wrapped functions for one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # words handed to heckeshape, for the post-staircase share
        self.shape_words: list = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, record=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``record``, when given, receives the first argument of every call
        before the clock starts.
        """
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if record is not None:
                record(args[0])
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every function of ``WRAPPED`` and every verification suite."""
        import heckelis.verification as verification
        from heckelis.words import Word

        originals = {}
        for module, attr in WRAPPED:
            if attr == "Word":
                continue
            fn = getattr(sys.modules[f"heckelis.{module}"], attr)
            record = self.shape_words.append if attr == "heckeshape" else None
            originals[id(fn)] = self.wrap(f"{module}.{attr}", fn, record)
        for suite in SUITES:
            fn = getattr(verification, suite)
            originals[id(fn)] = self.wrap(f"verification.{suite}", fn)
        for name, module in list(sys.modules.items()):
            if name != "heckelis" and not name.startswith("heckelis."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._patch(module, attr, originals[id(value)])
                elif isinstance(value, tuple) and any(id(v) in originals for v in value):
                    self._patch(module, attr, tuple(originals.get(id(v), v) for v in value))
        self._patch(Word, "__post_init__", self.wrap("words.Word", Word.__post_init__))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict:
        """Spans as arrays, with durations and self times."""
        import numpy as np  # not before the traced run; see run.py

        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - children,
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total time and self time."""
        import numpy as np

        spans = self.arrays()
        k = len(self.names)
        calls = np.bincount(spans["name"], minlength=k)
        total = np.bincount(spans["name"], weights=spans["duration"], minlength=k)
        own = np.bincount(spans["name"], weights=spans["self"], minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        import numpy as np

        spans = self.arrays()
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=spans["name"],
            parent=spans["parent"],
            start=spans["start"],
            end=spans["end"],
        )
