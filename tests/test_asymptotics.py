import math
import os
from itertools import accumulate, chain, product

import numpy as np
import pytest
from hypothesis import given

import heckelis.asymptotics as asymptotics
from heckelis.asymptotics import (
    SQRT_REGIME,
    STAIRCASE_REGIME,
    Scheduler,
    ShapeFunction,
    _sweep_block,
    beta,
    erdos_szekeres_bound,
    grid_q,
    line_curve,
    plancherel_curve,
    profile_function,
    shape_statistics,
    sup_norm_distance,
    sweep_at,
    trial_shapes,
    trial_words,
    word_statistics,
)
from heckelis.insertion import heckeshape
from heckelis.measures import exact_plancherel_hecke
from heckelis.rng import generator, trial_generators, trial_stream
from heckelis.tableaux import EMPTY_DIAGRAM, YoungDiagram, conjugate, staircase
from heckelis.words import (
    Word,
    coxeter_length,
    demazure_product,
    draw_letters,
    hecke_product,
    lds,
    lis,
    longest_element,
    random_word,
)

from conftest import child_after_import, words
from oracles import scalar_plancherel_curve


class TestSweepConfig:
    # grid_q: the alphabet size of one sweep row
    def test_alpha_mode_q(self):
        assert grid_q(10_000, alpha=0.45) == 63

    def test_k_mode_q(self):
        assert grid_q(10_000, k=2.0) == 200
        assert grid_q(400, k=0.5) == 10

    def test_rounding_is_half_up(self):
        # k * sqrt(4) is 2.5 and 3.5 exactly; rounding half to even gives 2 and 4
        assert grid_q(4, k=1.25) == 3
        assert grid_q(4, k=1.75) == 4

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one of alpha and k"):
            grid_q(100)
        with pytest.raises(ValueError, match="exactly one of alpha and k"):
            grid_q(100, alpha=0.5, k=1.0)

    def test_q_must_round_positive(self):
        with pytest.raises(ValueError, match="q rounds to 0, must be >= 1"):
            grid_q(100, k=0.01)

    @pytest.mark.parametrize("mode", ["alpha", "k"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, mode, value):
        with pytest.raises(ValueError, match=f"{mode} must be finite"):
            grid_q(100, **{mode: value})

    @pytest.mark.parametrize(
        "n, mode, value", [(100, "alpha", 200.0), (100, "k", 1e308), (0, "alpha", -1.0)]
    )
    def test_q_out_of_range_rejected(self, n, mode, value):
        with pytest.raises(ValueError, match="q is out of range"):
            grid_q(n, **{mode: value})


class TestRescale:
    def test_empty_shape_is_zero(self):
        f = profile_function(conjugate(EMPTY_DIAGRAM).parts, 4, 2, SQRT_REGIME)
        assert float(f.step(0.3)[0]) == 0.0
        assert float(f.linear(0.0)[0]) == 0.0

    def test_staircase_close_to_line(self):
        for q in (1, 2, 5, 10, 50, 200):
            f = profile_function(conjugate(staircase(q)).parts, 0, q, STAIRCASE_REGIME)
            assert sup_norm_distance(f, line_curve) <= 1.0 / q

    def test_square_shape_corner(self):
        m = 10
        f = profile_function(conjugate(YoungDiagram((m,) * m)).parts, m * m, m, SQRT_REGIME)
        assert float(f.step(0.49)[0]) == pytest.approx(0.5)
        assert float(f.step(0.51)[0]) == 0.0

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            profile_function(conjugate(staircase(2)).parts, 4, 2, "linear")

    def test_step_form_integer_valued_at_unit_scale(self):
        f = ShapeFunction((3.0, 1.0, 1.0), 1.0)
        for x in range(0, 5):
            value = float(f.step(x)[0])
            assert value == int(value)
        values = [float(f.step(i / 7)[0]) for i in range(40)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestPlancherelCurve:
    def test_left_endpoint(self):
        assert plancherel_curve(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_right_endpoint(self):
        assert plancherel_curve(0.9999999) == pytest.approx(0.0, abs=1e-3)
        assert plancherel_curve(1.0) == 0.0
        assert plancherel_curve(7.3) == 0.0

    def test_symmetry_across_diagonal(self):
        for i in range(1, 100):
            x = i / 100
            assert abs(plancherel_curve(plancherel_curve(x)) - x) < 1e-6

    def test_monotone_decreasing(self):
        values = [plancherel_curve(i / 50) for i in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            plancherel_curve(-0.1)

    @staticmethod
    def _grid(f: ShapeFunction) -> np.ndarray:
        # the grid sup_norm_distance evaluates the curves on
        hi = max(f.max_support, 1.0)
        xs = np.concatenate([np.linspace(0.0, hi, 10**4), f.breakpoints()])
        return xs[xs <= hi + 1e-12]

    @pytest.mark.parametrize(
        "f",
        [
            *(profile_function(conjugate(staircase(q)).parts, q * q + 1, q, STAIRCASE_REGIME)
              for q in (4, 8, 30)),
            # support 12/8 = 1.5: the grid runs past the curve's zero at 1
            profile_function(conjugate(YoungDiagram((12, 7, 4, 2, 1))).parts, 16, 30, SQRT_REGIME),
        ],
        ids=["staircase-4", "staircase-8", "staircase-30", "sqrt"],
    )
    def test_array_equals_scalar_bisection_bitwise(self, f):
        xs = self._grid(f)
        expected = np.array([scalar_plancherel_curve(float(x)) for x in xs])
        assert plancherel_curve(xs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("curve", [plancherel_curve, line_curve])
    def test_scalar_in_float_out(self, curve):
        for x in (0, 0.25, 1.0, 3):
            value = curve(x)
            assert type(value) is float
            assert value == curve(np.array([x], dtype=float))[0]

    @pytest.mark.parametrize("curve", [plancherel_curve, line_curve])
    def test_negative_entry_in_array_rejected(self, curve):
        with pytest.raises(ValueError, match="x >= 0"):
            curve(np.array([0.0, 0.5, -1e-12, 2.0]))
        with pytest.raises(ValueError, match="x >= 0"):
            curve(-0.1)

    def test_line_is_one_minus_x_then_zero(self):
        xs = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
        assert line_curve(xs).tolist() == [1.0, 0.75, 0.5, 0.0, 0.0]


class TestSupNorm:
    def test_function_against_itself(self):
        f = profile_function(conjugate(staircase(6)).parts, 0, 6, STAIRCASE_REGIME)
        reference = f.step
        # comparing the step form against itself leaves only the linear form
        # displacement, which is below 1/q
        assert sup_norm_distance(f, reference) <= 1.0 / 6

    def test_zero_for_matching_linear(self):
        f = ShapeFunction((1.0,), 1.0)
        reference = f.linear
        g = ShapeFunction((1.0,), 1.0)
        # linear form against itself: only the step mismatch at the corner
        assert sup_norm_distance(g, reference) <= 1.0


class TestBeta:
    def test_table_values(self):
        assert beta(1.0) == 0.5
        assert beta(2.0) == 0.75
        assert beta(0.5) == 0.25

    def test_continuity_at_one(self):
        assert beta(1.0 - 1e-12) == pytest.approx(beta(1.0 + 1e-12), abs=1e-9)

    def test_monotone(self):
        grid = [0.1 * i for i in range(1, 60)]
        values = [beta(k) for k in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            beta(0.0)


class TestSweep:
    def test_unary_alphabet_row(self):
        q = grid_q(50, alpha=0.0)
        assert q == 1
        res = sweep_at(50, q, 30, 4)
        assert res.mean_lis == 1.0 and res.sigma_lis == 0.0
        assert res.mean_lds == 1.0 and res.sigma_lds == 0.0
        assert res.staircase_fraction == 1.0

    def test_matches_exact_expectation(self):
        q = grid_q(5, alpha=math.log(3) / math.log(5))
        assert q == 3
        res = sweep_at(5, q, 4000, 8)
        exact = float(exact_plancherel_hecke(5, 3).expected_lis())
        sigma = res.sigma_lis / math.sqrt(4000)
        assert abs(res.mean_lis - exact) <= 3 * max(sigma, 1e-9)

    def test_trial_shapes_limited_and_ordered(self):
        shapes = list(trial_shapes(30, 5, 2, 4))
        assert len(shapes) == 4
        assert shapes[2] == heckeshape(random_word(30, 5, trial_stream(2, 2)))
        assert list(trial_shapes(30, 5, 2, 4, start=2)) == shapes[2:]


    # the scheduler: serial unless its timing blocks say a pool pays, and
    # then this process and a pool, min(threads, trials left, CPUs) in all
    def test_tiny_work_stays_serial(self, monkeypatch, fake_pool):
        # timing blocks of 1, 2, ..., 64 trials take far less than a worker
        # costs, so the last 3 trials run here too
        monkeypatch.setattr(asymptotics.os, "cpu_count", lambda: 8)
        with Scheduler(8, 130) as scheduler:
            res = sweep_at(3, 2, 130, 1, scheduler=scheduler)
        assert fake_pool == [] and (scheduler.workers, scheduler.blocks) == (1, 8)
        assert res == sweep_at(3, 2, 130, 1)

    def test_tiny_work_never_imports_the_pool(self):
        seen = child_after_import(
            "from heckelis.asymptotics import Scheduler, sweep_at; "
            "s = Scheduler(8, 130); sweep_at(30, 4, 130, 1, scheduler=s); "
            "print(json.dumps({'workers': s.workers, "
            "'pool': sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules))}))",
            {})
        assert seen == {"workers": 1, "pool": []}

    @pytest.mark.parametrize(
        "threads, cpus, workers",
        [(8, 2, 2), (64, 16, 3), (2, 16, 2), (1, 16, None), (8, 1, None)],
    )
    def test_pool_capped_by_blocks_and_cpus(self, monkeypatch, fake_pool, threads, cpus, workers):
        # with workers made free a pool always pays once a block is timed:
        # of the 6 trials, blocks of 1 and 2 run here, and the 3 left can
        # keep at most 3 processes busy, each with a block at least
        monkeypatch.setattr(asymptotics, "_WORKER_COST_S", 0.0)
        monkeypatch.setattr(asymptotics.os, "cpu_count", lambda: cpus)
        with Scheduler(threads, 6) as scheduler:
            res = sweep_at(3, 2, 6, 1, scheduler=scheduler)
        assert fake_pool == ([] if workers is None else [workers - 1])
        if workers is None:
            assert (scheduler.workers, scheduler.blocks) == (1, 1)
        else:
            assert scheduler.workers == workers and 2 + workers <= scheduler.blocks <= 5
        assert res == sweep_at(3, 2, 6, 1)

    def test_deterministic_and_thread_independent(self, monkeypatch, tmp_path):
        assert_pool_matches_serial(monkeypatch, "compiled" if asymptotics._compiled() else "python",
                                   tmp_path)

    @pytest.mark.parametrize("fallback", ["python_kernel", "missing_compiler"])
    def test_deterministic_and_thread_independent_on_the_python_kernels(self, monkeypatch, fallback,
                                                                         request, tmp_path):
        request.getfixturevalue(fallback)
        assert_pool_matches_serial(monkeypatch, "python", tmp_path)


BLOCK_LOG = None  # where logged_block writes; the pool's forked workers inherit it


def logged_block(args):
    """``_sweep_block``, which also logs the process that ran it."""
    with open(BLOCK_LOG, "a") as log:
        log.write(f"{os.getpid()}\n")
    return _sweep_block(args)


def assert_pool_matches_serial(monkeypatch, kernel, tmp_path):
    """Two rows, each profiled and not, give the same results at --threads 1
    and on two processes, this one and a real pool of one worker, forced
    by making workers free; both processes run blocks."""
    monkeypatch.setattr(asymptotics, "_WORKER_COST_S", 0.0)
    monkeypatch.setattr(asymptotics.os, "cpu_count", lambda: 2)
    monkeypatch.setitem(globals(), "BLOCK_LOG", tmp_path / "pids")
    monkeypatch.setattr(asymptotics, "_sweep_block", logged_block)
    q = grid_q(60, k=1.0)
    rows = [(seed, profile) for seed in (12, 13) for profile in (False, True)]
    results = {}
    for threads in (1, 2):
        with Scheduler(threads, len(rows) * 130) as scheduler:
            results[threads] = [sweep_at(60, q, 130, seed, profile=profile, scheduler=scheduler)
                                for seed, profile in rows]
        assert scheduler.workers == threads
    pids = (tmp_path / "pids").read_text().split()
    assert len(set(pids)) == 2 and pids[0] == str(os.getpid())
    assert results[1] == results[2]
    assert {res.kernel for res in results[2]} == {kernel}
    assert [bool(res.mean_profile) for res in results[2]] == [profile for _, profile in rows]


def _oracle_statistics(w: Word):
    return lis(w), lds(w), heckeshape(w) == staircase(w.alphabet_size)


class TestKernels:
    # each kernel's lis, lds and staircase test against the oracles: the
    # quadratic DP and the insertion shape
    def test_exhaustive_small(self):
        count = 0
        for q in range(1, 5):
            for n in range(0, 8):
                ws = [Word(letters, q) for letters in product(range(1, q + 1), repeat=n)]
                expected = [_oracle_statistics(w) for w in ws]
                by_word = word_statistics([w.letters for w in ws], n, q)
                assert [s[:3] for s in by_word] == expected
                assert [s[:3] for s in shape_statistics(map(heckeshape, ws), n, q)] == expected
                count += len(ws)
        assert count == 25_388

    @given(words(max_n=40, max_q=8))
    def test_random_words(self, w):
        n, q = len(w), w.alphabet_size
        (by_word,) = word_statistics([w.letters], n, q)
        (by_shape,) = shape_statistics([heckeshape(w)], n, q)
        assert by_word == _oracle_statistics(w) + ((),)
        assert by_shape[:3] == _oracle_statistics(w)

    def test_staircase_reached(self):
        w = Word((1, 2, 1), 2)  # q(q+1)/2 = 3 = n, and the shape is (2, 1)
        assert next(word_statistics([w.letters], 3, 2)) == (2, 2, True, ())
        assert next(shape_statistics([heckeshape(w)], 3, 2)) == (2, 2, True, (2, 1))

    @pytest.mark.parametrize("profile", [False, True])
    def test_unreachable_staircase_builds_nothing(self, monkeypatch, profile):
        # q(q+1)/2 > n: no shape of n boxes is the staircase, so neither
        # kernel builds the staircase, w0 or a Demazure product
        def fail(*args):
            raise AssertionError("built an O(q) staircase target")

        for name in ("staircase", "longest_element", "demazure_product"):
            monkeypatch.setattr(asymptotics, name, fail)
        res = sweep_at(100, 10**6, 3, 5, profile=profile)
        assert res.staircase_fraction == 0.0
        assert res.mean_lis > 1


class TestLetterPath:
    """The samplers read a trial's letters as ints from its stream, and the
    shape kernel draws them in chunks, only as far as it inserts."""

    @pytest.mark.parametrize("q", [1, 8, 1000, 10**4, 2**40, 2**63 - 1],
                             ids=["1", "8", "1000", "1e4", "2^40", "2^63-1"])
    @pytest.mark.parametrize("first", [63, 64, 10**4 + 1])
    def test_chunked_draws_equal_one_call(self, q, first):
        n = 10**4
        whole = draw_letters(generator(trial_stream(7, 3)), n, q)
        assert len(whole) == n and 1 <= min(whole) and max(whole) <= q
        # the first chunks do not divide n: 63, 1, 127, then the rest
        rng = generator(trial_stream(7, 3))
        split = [draw_letters(rng, size, q) for size in (63, 1, 127, n - 191)]
        assert list(chain.from_iterable(split)) == whole
        # the kernel's own chunks, from the block path's re-keyed generator
        (rng,) = trial_generators(7, 3, 4)
        sizes = [first * 2**i for i in range(20)]
        ends = [min(end, n) for end in accumulate(sizes)]
        chunks = [draw_letters(rng, hi - lo, q) for lo, hi in zip([0] + ends, ends) if hi > lo]
        assert list(chain.from_iterable(chunks)) == whole

    @pytest.mark.parametrize("q", [1, 3, 8, 40])
    def test_lazy_shapes_equal_full_words(self, q):
        boxes = q * (q + 1) // 2
        for n in sorted({0, 1, boxes - 1, boxes, 10**4}):
            trials = 4 if n < 10**4 else 2
            for t, shape in enumerate(trial_shapes(n, q, 11, trials)):
                assert shape == heckeshape(random_word(n, q, trial_stream(11, t))), (n, t)

    @pytest.mark.parametrize("n, q", [(10**4, 3), (10**4, 8), (400, 20), (200, 30), (50, 1)])
    def test_draws_stop_at_the_chunk_holding_the_staircase(self, n, q, monkeypatch,
                                                           python_kernel):
        drawn = []

        def counted(rng, size, q):
            drawn.append(size)
            return draw_letters(rng, size, q)

        monkeypatch.setattr(asymptotics, "draw_letters", counted)
        (shape,) = trial_shapes(n, q, 5, 1)
        letters = random_word(n, q, trial_stream(5, 0)).letters
        boxes = q * (q + 1) // 2
        w0 = longest_element(q).one_line
        # the first prefix whose Demazure product is w0 ends the insertion
        reached = next((m for m in range(boxes, n + 1)
                        if demazure_product(letters[:m], q) == w0), None)
        assert (reached is not None) == (shape == staircase(q))
        if boxes > n:
            assert drawn == [n]
            return
        # q(q+1)/2 letters first, each later chunk twice the one before, cut at n
        assert drawn == [min(boxes * 2**i, n - boxes * (2**i - 1)) for i in range(len(drawn))]
        end = sum(drawn)
        if reached is None:
            assert end == n
        else:
            assert end - drawn[-1] < reached <= end

    def test_sampling_builds_no_word(self, monkeypatch):
        built = []
        real = Word.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(Word, "__post_init__", counted)
        assert len(list(trial_shapes(300, 6, 3, 10))) == 10
        sweep_at(300, 6, 10, 3)
        sweep_at(300, 6, 10, 3, profile=True)
        assert built == []
        random_word(3, 2, 1)
        assert len(built) == 1  # the counter does see a Word being built


def python_paths(n, q, seed, stop, start=0):
    """Each trial's word statistics and shape parts by the Python kernels."""
    words = list(word_statistics(trial_words(n, q, seed, stop, start), n, q))
    return words, list(asymptotics._python_shapes(n, q, seed, stop, start))


def compiled_paths(library, n, q, seed, stop, start=0):
    """The same by the compiled kernels."""
    words = asymptotics._compiled_word_statistics(library, n, q, seed, stop, start)
    return list(words), list(asymptotics._compiled_shapes(library, n, q, seed, stop, start))


class TestCompiledKernels:
    """Both compiled kernels against the Python kernels, their oracles, trial
    by trial: the same letters drawn, the same statistics and shapes."""

    @pytest.fixture
    def library(self, compiled_kernel):
        return asymptotics._compiled()

    def test_small_words(self, library):
        # four trials per word reach all but about e**-4 of the words, and
        # the hundred more all the words of the smallest ranges
        for q in range(1, 5):
            for n in range(0, 8):
                trials, seed = 4 * q**n + 100, 100 * q + n
                words = list(trial_words(n, q, seed, trials))
                assert len(set(map(tuple, words))) >= 0.97 * q**n, (n, q)
                assert compiled_paths(library, n, q, seed, trials) == (
                    list(word_statistics(words, n, q)),
                    list(asymptotics._python_shapes(n, q, seed, trials, 0))), (n, q)

    @pytest.mark.parametrize(
        "n, q, trials",
        [
            (0, 1, 3), (1, 1, 3), (500, 1, 3),  # q = 1 draws nothing
            (0, 5, 3),
            # 32-bit draws: Lemire's, rejecting a quarter of them at q = 3 * 2**30,
            # and the plain word at q = 2**32
            (40, 3 * 2**30, 200), (40, 2**32 - 1, 200), (40, 2**32, 200),
            # 64-bit draws: Lemire's, rejecting a quarter of them at q = 3 * 2**61
            (40, 2**32 + 1, 200), (40, 3 * 2**61, 200), (40, 2**63 - 1, 200),
            # q(q+1)/2 = 6 just above, at and just below n, then far below
            (5, 3, 500), (6, 3, 500), (7, 3, 500), (200, 3, 200),
            (35, 8, 300), (36, 8, 300), (37, 8, 300), (2000, 8, 100),
            (3000, 60, 20), (10**4, 10**4, 4),
        ],
    )
    def test_edge_sizes(self, library, n, q, trials):
        assert compiled_paths(library, n, q, 3, trials) == python_paths(n, q, 3, trials)

    @pytest.mark.parametrize(
        "start, stop",
        [(1000, 1100), (5, 1100), (2**32 - 3, 2**32 + 3), (2**64 - 3, 2**64)],
        ids=["mid-range", "two-key-chunks", "high-word", "last-trials"],
    )
    def test_blocks(self, library, start, stop):
        assert compiled_paths(library, 30, 4, 9, stop, start) == python_paths(30, 4, 9, stop, start)

    def test_sweep_and_shapes_on_both_paths(self, library, monkeypatch):
        compiled = [sweep_at(500, 12, 70, 4, profile=profile) for profile in (False, True)]
        shapes = list(trial_shapes(500, 12, 4, 70))
        monkeypatch.setattr(asymptotics, "_compiled", lambda: None)
        assert [sweep_at(500, 12, 70, 4, profile=profile) for profile in (False, True)] == compiled
        assert list(trial_shapes(500, 12, 4, 70)) == shapes
        assert [res.kernel for res in compiled] == ["compiled", "compiled"]
        assert sweep_at(500, 12, 70, 4).kernel == "python"

    @pytest.mark.parametrize("q", [8, 10**9])
    def test_words_past_int64_rejected_before_drawing(self, q, kernel):
        with pytest.raises(ValueError, match="more than 2[*][*]63 - 1"):
            sweep_at(10**20, q, 1, 1)
        with pytest.raises(ValueError, match="more than 2[*][*]63 - 1"):
            trial_shapes(10**20, 2**40, 1, 1)  # 2**40 * (2**40 + 1) / 2 letters before the staircase
        # the shape kernel reaches staircase(8) long before 2**63 letters
        assert list(trial_shapes(10**20, 8, 1, 2)) == [staircase(8)] * 2


class TestErdosSzekeres:
    def test_worked_bound(self):
        assert erdos_szekeres_bound(3, 3, 4) == 8

    def test_tightness_witness(self):
        w = Word((2, 1, 3, 4, 2, 3, 1, 2), 4)
        assert coxeter_length(hecke_product(w)) == 8
        assert lis(w) == 3 and lds(w) == 3
        assert coxeter_length(hecke_product(w)) <= erdos_szekeres_bound(3, 3, 4)

    def test_two_sums_agree(self):
        for q in range(2, 9):
            for a in range(1, q):
                for b in range(1, q):
                    by_rows = sum(min(b, q - i + 1) for i in range(1, a + 1))
                    by_cols = sum(min(a, q - j + 1) for j in range(1, b + 1))
                    assert erdos_szekeres_bound(a, b, q) == by_rows == by_cols

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_szekeres_bound(0, 1, 3)
        with pytest.raises(ValueError):
            erdos_szekeres_bound(1, 3, 3)

    def test_implication_small_exhaustive(self):
        for q in (3, 4):
            for n in range(0, 6):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    length = coxeter_length(hecke_product(w))
                    for a in range(1, q):
                        for b in range(1, q):
                            bound = erdos_szekeres_bound(a, b, q)
                            assert length <= bound or lis(w) > a or lds(w) > b


class TestStaircaseCheck:
    def test_unary_alphabet(self):
        assert sweep_at(5, 1, 20, 3).staircase_fraction == 1.0

    def test_small_subcritical_case(self):
        # alphabet 2 with plenty of letters: the staircase dominates
        frac = sweep_at(64, 2, 200, 9).staircase_fraction
        assert frac >= 0.95


@pytest.mark.slow
class TestLargeSubcriticalBand:
    def test_lis_pins_to_alphabet_at_reduced_trials(self):
        # the 50k-letter row at exponent 0.45: every sample's LIS equals
        # q = 130 and the deviation vanishes (band check at 3 trials)
        q = grid_q(50_000, alpha=0.45)
        assert q == 130
        res = sweep_at(50_000, q, 3, 130)
        assert res.mean_lis == 130.0
        assert res.sigma_lis == 0.0
