"""Insertion shapes of random words over bounded alphabets.

The package implements the insertion correspondence sending a word to a
pair of same-shape tableaux (an increasing insertion tableau and a standard
set-valued recording tableau), the jeu-de-taquin style rectification that
computes the same insertion tableau through switch operators, the exact
shape measures these induce on Young diagrams, and a reproducible Monte
Carlo harness for the induced LIS/LDS statistics across alphabet-size
regimes, plus patience sorting with ties.  Each name is imported from
its submodule (``heckelis.words``, ``heckelis.insertion``, ...).

No package code calls BLAS, so unless ``OPENBLAS_NUM_THREADS`` is already
set the package sets it to 1 before numpy loads: OpenBLAS then starts no
idle worker threads, which otherwise cost CPU time in every process that
loads numpy.  No submodule imports numpy at import time; only the Python
sampling paths, the reference curves and ``verify`` load it, where they run.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
