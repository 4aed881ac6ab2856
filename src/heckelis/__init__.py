"""Insertion shapes of random words over bounded alphabets.

The package implements the insertion correspondence sending a word to a
pair of same-shape tableaux (an increasing insertion tableau and a standard
set-valued recording tableau), the jeu-de-taquin style rectification that
computes the same insertion tableau through switch operators, the exact
shape measures these induce on Young diagrams, and a reproducible Monte
Carlo harness for the induced LIS/LDS statistics across alphabet-size
regimes, plus patience sorting with ties.

No package code calls BLAS, so unless ``OPENBLAS_NUM_THREADS`` is already
set the package sets it to 1 before numpy loads: OpenBLAS then starts no
idle worker threads, which otherwise cost CPU time in every process.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .words import (
    Word,
    Permutation,
    lis,
    lds,
    patience_lis,
    random_word,
    hecke_product,
    coxeter_length,
    longest_element,
)
from .tableaux import (
    YoungDiagram,
    IncreasingTableau,
    SetValuedStandardTableau,
    conjugate,
    staircase,
    superstandard,
    count_increasing,
    count_set_valued_standard,
    count_standard,
    count_semistandard,
)
from .insertion import (
    HeckePair,
    hecke,
    hecke_inverse,
    heckeshape,
    insertion_tableau,
    rsk_shape,
    schensted_shape,
)
from .kjdt import (
    MixedTableau,
    switch,
    standard_sequence,
    is_viable,
    k_infusion,
    k_rectify,
)
from .measures import (
    ExactDistribution,
    exact_plancherel_hecke,
    plancherel_rsk_prob,
    markov_transition,
)
from .asymptotics import (
    SweepConfig,
    SweepResult,
    sweep_at,
    trial_words,
    trial_shapes,
    plancherel_curve,
    line_curve,
    sup_norm_distance,
    beta,
    erdos_szekeres_bound,
)
from .patience import PileState, play_greedy, deck_simulation
