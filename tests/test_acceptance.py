"""Acceptance criteria, one test per criterion.

Each test prints a single [ACCEPTANCE] line (visible with ``pytest -s`` or
``-rA``) and then asserts.  Tolerances and ranges are pinned here; the
statistical checks use fixed seeds, so the suite is deterministic.
"""

import json
import math
import time
from itertools import product
from pathlib import Path

import pytest

import heckelis.asymptotics as asymptotics
from heckelis.asymptotics import (
    erdos_szekeres_bound,
    grid_q,
    shape_statistics,
    sweep_at,
    trial_shapes,
    trial_words,
    word_statistics,
)
from heckelis.cli import main as cli_main
from heckelis.insertion import hecke
from heckelis.kjdt import k_rectify, random_viable_sequence
from heckelis.patience import deck_simulation
from heckelis.tableaux import (
    YoungDiagram,
    count_increasing,
    count_semistandard,
    count_set_valued_standard,
    count_standard,
    staircase,
)
from heckelis.verification import (
    FULL,
    check_first_row_column,
    check_normalizer_identity,
    check_patience,
    check_pushforward,
    check_rectification,
    check_roundtrip,
    check_growth_process,
)
from heckelis.words import Word, coxeter_length, hecke_product, lds, lis

from oracles import (
    all_partitions,
    brute_count_semistandard,
    brute_count_standard,
    trial_generator,
)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


NINE_WEIGHTS = [
    ((1,), 3, 1),
    ((2,), 3, 3),
    ((1, 1), 3, 3),
    ((2, 1), 5, 8),
    ((3,), 1, 3),
    ((1, 1, 1), 1, 3),
    ((3, 1), 2, 3),
    ((2, 1, 1), 2, 3),
    ((2, 2), 1, 2),
]


def test_criterion_01_normalizer_identity():
    start = time.perf_counter()
    suite = check_normalizer_identity(FULL)
    weights_ok = True
    for parts, d, e in NINE_WEIGHTS:
        shape = YoungDiagram(parts)
        weights_ok &= count_increasing(shape, 3) == d
        weights_ok &= count_set_valued_standard(shape, 4) == e
    total = sum(d * e for _, d, e in NINE_WEIGHTS)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: exact normalizer identity",
        suite.passed and weights_ok and total == 81 and elapsed < 30,
        f"{suite.detail}; nine weights sum {total}; {elapsed:.1f}s",
    )


def test_criterion_02_paper_constants():
    start = time.perf_counter()
    values = (
        count_increasing(YoungDiagram((2, 1)), 3),
        count_set_valued_standard(YoungDiagram((2, 1)), 4),
        count_increasing(YoungDiagram((4, 2, 1)), 7),
        count_set_valued_standard(YoungDiagram((4, 2, 1)), 8),
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: pinned exact constants",
        values == (5, 8, 1337, 452) and elapsed < 10,
        f"got {values}; {elapsed:.1f}s",
    )


def test_criterion_03_first_row_column_encoding():
    suite = check_first_row_column(FULL)
    report("criterion 3: first row is LIS, first column is LDS", suite.passed, suite.detail)


def test_criterion_04_bijection_and_pushforward():
    roundtrip = check_roundtrip(FULL)
    pushforward = check_pushforward(FULL)
    report(
        "criterion 4: bijection roundtrip and exact pushforward",
        roundtrip.passed and pushforward.passed,
        f"{roundtrip.detail}; {pushforward.detail}",
    )


def test_criterion_05_rectification():
    start = time.perf_counter()
    rect = check_rectification(FULL)
    # worked single-bump example through the infusion route
    from heckelis.kjdt import k_infusion
    from heckelis.tableaux import IncreasingTableau

    plain, _ = k_infusion(
        IncreasingTableau(((1, 2, 3),)),
        {(1, 4): 3, (2, 1): 1, (2, 2): 3, (2, 3): 5, (3, 1): 2, (3, 2): 4, (3, 3): 6},
    )
    worked_ok = plain.rows == ((1, 3, 5), (2, 4, 6), (6,))

    # Thomas-Yong '07: K-infusion, hence K-rectification, ends in the same
    # tableau under every viable switch sequence
    viable_ok = True
    checked = 0
    for q in range(1, 5):
        for n in range(0, 6):
            for letters in product(range(1, q + 1), repeat=n):
                w = Word(letters, q)
                reference = k_rectify(w)
                p = staircase(max(n - 1, 0)).size
                # the 50 sequences of word `checked` draw from trial `checked` of seed 8080
                rng = trial_generator(8080, checked)
                for _ in range(50):
                    seq = random_viable_sequence(p, q, rng)
                    if k_rectify(w, sequence=seq) != reference:
                        viable_ok = False
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 5: rectification equals insertion; viable sequences agree",
        rect.passed and worked_ok and viable_ok and elapsed < 300,
        f"{rect.detail}; {checked} words x 50 sequences; {elapsed:.1f}s",
    )


EXAMPLE_WORD = Word((5, 4, 1, 3, 4, 2, 5, 1, 2, 1, 4, 2, 4), 5)

EXAMPLE_P_STEPS = [
    ((5,),),
    ((4,), (5,)),
    ((1,), (4,), (5,)),
    ((1, 3), (4,), (5,)),
    ((1, 3, 4), (4,), (5,)),
    ((1, 2, 4), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2,), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4, 5), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4, 5), (3, 5), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4, 5), (3, 5), (4,), (5,)),
]


def test_criterion_06_worked_example_golden():
    steps_ok = True
    tenth_ok = False
    for j in range(1, 14):
        pair = hecke(Word(EXAMPLE_WORD.letters[:j], 5))
        steps_ok &= pair.p.rows == EXAMPLE_P_STEPS[j - 1]
        if j == 10:
            tenth_ok = set(pair.q.rows[4][0]) == {8, 10}
    final = hecke(EXAMPLE_WORD)
    final_ok = (
        final.shape == YoungDiagram((4, 3, 2, 1, 1))
        and tuple(tuple(tuple(sorted(s)) for s in row) for row in final.q.rows)
        == (
            ((1,), (4,), (5,), (7,)),
            ((2,), (9,), (11, 13)),
            ((3,), (12,)),
            ((6,),),
            ((8, 10),),
        )
    )
    report(
        "criterion 6: thirteen-step worked example",
        steps_ok and tenth_ok and final_ok,
        "all insertion states, the {8,10} corner, and the final pair",
    )


def test_criterion_07_patience():
    start = time.perf_counter()
    suite = check_patience(FULL)

    stats = deck_simulation(ranks=13, copies_per_rank=4, trials=100_000, seed=1848)
    mean_ok = 9.15 <= stats.mean_piles <= 9.25
    reference = {6: 82, 7: 2993, 8: 20336, 9: 39039, 10: 27843, 11: 8489, 12: 1166, 13: 52}
    bins_ok = True
    for count, ref in reference.items():
        p = ref / 100_000
        sigma = math.sqrt(2 * 100_000 * p * (1 - p))  # both tables are samples
        if abs(stats.histogram.get(count, 0) - ref) > 3 * sigma:
            bins_ok = False
    control = deck_simulation(ranks=52, copies_per_rank=1, trials=100_000, seed=1849)
    control_ok = 11.5 <= control.mean_piles <= 11.7
    elapsed = time.perf_counter() - start
    report(
        "criterion 7: patience piles and deck statistics",
        suite.passed and mean_ok and bins_ok and control_ok and elapsed < 120,
        f"mean {stats.mean_piles:.3f}, control {control.mean_piles:.3f}; {elapsed:.1f}s",
    )


def test_criterion_08_growth_process_and_hooks():
    suite = check_growth_process(FULL)
    f_ok = all(
        count_standard(YoungDiagram(parts)) == brute_count_standard(parts)
        for parts in all_partitions(8)
        if parts
    )
    g_ok = all(
        count_semistandard(YoungDiagram(parts), q) == brute_count_semistandard(parts, q)
        for q in range(1, 5)
        for parts in all_partitions(6)
    )
    report(
        "criterion 8: growth transitions and hook formulas",
        suite.passed and f_ok and g_ok,
        suite.detail,
    )


def test_criterion_09_staircase_concentration():
    # the shape kernel tests the insertion shape against staircase(q), the
    # word kernel tests the Demazure product against w0; per trial they
    # agree, though the shape kernel stops drawing letters at the staircase
    start = time.perf_counter()
    n, q, seed, trials = 4096, 8, 4096, 1000
    by_shape = shape_statistics(trial_shapes(n, q, seed, trials), n, q)
    by_word = word_statistics(trial_words(n, q, seed, trials), n, q)
    hits = 0
    disagree = []
    for t, ((_, _, stair, _), (_, _, stair_by_word, _)) in enumerate(zip(by_shape, by_word)):
        hits += stair
        if stair != stair_by_word:
            disagree.append(t)
    fraction = hits / trials
    elapsed = time.perf_counter() - start
    agreement = "held" if not disagree else f"failed on trials {disagree[:5]}"
    # every trial must reach the staircase.  A word that holds a fixed
    # reduced word of w0 (36 letters) as a subsequence has Demazure product
    # w0, and a greedy scan finds one with each letter matching with
    # probability 1/8, so P(not staircase) <= P(Bin(4096, 1/8) < 36),
    # below 1e-180 per trial and below 1e-177 over the 1000 trials
    report(
        "criterion 9: staircase concentration below critical",
        fraction == 1.0 and not disagree and elapsed < 60,
        f"fraction {fraction:.3f}; per-sample shape/permutation agreement {agreement}; {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_10_scaled_lis_table():
    start = time.perf_counter()
    n = 10_000
    scale = 2 * math.sqrt(n)
    failures = []
    rows = []

    for k, target in [(0.5, 0.25), (1.0, 0.5), (2.0, 0.75)]:
        res = sweep_at(n, grid_q(n, k=k), 50, int(10 * k))
        ratio = res.mean_lis / scale
        rows.append(f"k={k}: {ratio:.3f}")
        if abs(ratio - target) > 0.05:
            failures.append(f"k={k} ratio {ratio:.3f} vs {target}")

    res = sweep_at(n, grid_q(n, alpha=1.0), 50, 77)
    ratio = res.mean_lis / scale
    rows.append(f"alpha=1: {ratio:.3f}")
    if not 0.93 <= ratio <= 1.00:
        failures.append(f"alpha=1 ratio {ratio:.3f}")

    # LIS = q exactly when 1, 2, ..., q is a subsequence, which a greedy scan
    # finds with each letter matching with probability 1/q: a trial misses
    # with probability P(Bin(10**4, 1/63) < 63) < 1.1e-18, so this row
    # fails with probability below 1e-16 over its 50 trials
    q = grid_q(n, alpha=0.45)
    res = sweep_at(n, q, 50, 45)
    rows.append(f"alpha=0.45: mean {res.mean_lis:.2f} sigma {res.sigma_lis:.2f}")
    if not (q == 63 and res.mean_lis == 63.0 and res.sigma_lis == 0.0):
        failures.append(f"alpha=0.45 gave mean {res.mean_lis}, sigma {res.sigma_lis}")

    elapsed = time.perf_counter() - start
    report(
        "criterion 10: scaled LIS constants across regimes",
        not failures and elapsed < 1800,
        "; ".join(rows) + f"; {elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_11_erdos_szekeres():
    witness = Word((2, 1, 3, 4, 2, 3, 1, 2), 4)
    witness_ok = (
        erdos_szekeres_bound(3, 3, 4) == 8
        and coxeter_length(hecke_product(witness)) == 8
        and lis(witness) == 3
        and lds(witness) == 3
    )
    implication_ok = True
    words = 0
    for q in range(2, 5):
        bounds = {
            (a, b): erdos_szekeres_bound(a, b, q)
            for a in range(1, q)
            for b in range(1, q)
        }
        for n in range(0, 9):
            for letters in product(range(1, q + 1), repeat=n):
                w = Word(letters, q)
                length = coxeter_length(hecke_product(w))
                li, ld = lis(w), lds(w)
                words += 1
                for (a, b), bound in bounds.items():
                    if length > bound and not (li > a or ld > b):
                        implication_ok = False
    report(
        "criterion 11: Coxeter-length subsequence bound",
        witness_ok and implication_ok,
        f"{words} words, all (a, b) pairs; tightness witness pinned",
    )


def test_criterion_12_conjecture_probes(tmp_path, capsys):
    # q matching alphabet exponent 0.75 at n = 10^4, and 0.25 at n = 4096
    code_a = cli_main(
        ["curve", "--n", "10000", "--q", "1000", "--trials", "20",
         "--seed", "1205", "--threads", "1", "--out", str(tmp_path / "sqrt.csv")]
    )
    code_b = cli_main(
        ["curve", "--n", "4096", "--q", "8", "--trials", "20",
         "--seed", "1206", "--threads", "1", "--out", str(tmp_path / "stair.csv")]
    )
    printed = capsys.readouterr().out
    import json

    man_a = json.loads((tmp_path / "sqrt.csv.manifest.json").read_text())
    man_b = json.loads((tmp_path / "stair.csv.manifest.json").read_text())
    d_plancherel = float(man_a["params"]["sup_distance_plancherel"])
    d_line = float(man_b["params"]["sup_distance_line"])
    report(
        "criterion 12: limit-shape probes (report only)",
        code_a == 0 and code_b == 0 and 0 <= d_plancherel <= 2 and 0 <= d_line <= 2,
        f"sup distance to curve at alpha=0.75: {d_plancherel:.4f}; "
        f"to line at alpha=0.25: {d_line:.4f}; no threshold asserted",
    )


def test_criterion_13_thread_determinism(monkeypatch, tmp_path):
    # runs this small stay serial at any --threads, so workers are made
    # free and four CPUs are assumed: --threads 2 and 4 then run real pools
    monkeypatch.setattr(asymptotics, "_WORKER_COST_S", 0.0)
    monkeypatch.setattr(asymptotics.os, "cpu_count", lambda: 4)
    outputs, workers = [], []
    for threads in (1, 2, 4):
        out = tmp_path / f"sweep_{threads}.csv"
        code = cli_main(
            ["sweep", "--n", "300", "--k-grid", "1.0", "--alpha-grid", "0.6",
             "--trials", "200", "--seed", "13", "--threads", str(threads),
             "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
        workers.append(json.loads(Path(f"{out}.manifest.json").read_text())["workers"])
    report(
        "criterion 13: thread-count determinism",
        outputs[0] == outputs[1] == outputs[2] and workers == [1, 2, 4],
        f"byte-identical sweep CSVs for {', '.join(map(str, workers))} workers",
    )
