import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import heckelis
from heckelis import asymptotics, cli, measures
from heckelis.cli import main
from heckelis.measures import exact_plancherel_hecke
from heckelis.tableaux import YoungDiagram

from conftest import child_after_import


def run_cli(args):
    return main([str(a) for a in args])


# one invocation of each subcommand, for checks that fail before any work
EVERY_SUBCOMMAND = [
    ["verify"],
    ["exact", "--n", "2", "--q", "2"],
    ["sample", "--n", "2", "--q", "2", "--trials", "1", "--out", "x"],
    ["sweep", "--n", "2", "--alpha-grid", "1.0", "--trials", "1", "--out", "x"],
    ["curve", "--n", "2", "--q", "2", "--trials", "1", "--out", "x"],
    ["patience", "--ranks", "2", "--copies", "1", "--trials", "1", "--out", "x"],
]


VERIFY_FAST_DIGEST = "fbb821451eecc635ab7ebbc228a999512e99404e0d76fbab23d0f5c4cd9c2dca"


class TestVerify:
    def test_fast_level_passes_quickly(self, capsys):
        import time

        start = time.perf_counter()
        assert run_cli(["verify", "--level", "fast"]) == 0
        assert time.perf_counter() - start < 60
        out = capsys.readouterr().out
        assert "normalizer-identity" in out
        assert "(n,q)=(4,3) gives 81" in out
        assert "all suites passed" in out
        # the suites' names and word counts, byte for byte: a changed word
        # range or suite shows here
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAST_DIGEST

    def test_fast_level_without_compiler(self, missing_compiler, capsys):
        # the random words come from the generators, with the same letters
        assert run_cli(["verify", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAST_DIGEST

    @pytest.mark.parametrize("path", ["compiled_kernel", "missing_compiler"])
    def test_first_row_column_same_on_both_paths(self, request, path):
        from heckelis.verification import FAST, SuiteReport, check_first_row_column

        request.getfixturevalue(path)
        assert check_first_row_column(FAST) == SuiteReport(
            "lis-lds-encoding", True, "433 exhaustive words, 300 random")

    def test_random_words_are_checked(self, monkeypatch):
        # a heckeshape that drops the last box of the last row, but only on
        # words longer than the exhaustive range's (n <= 5 at fast) reach
        import heckelis.verification as verification
        from heckelis.tableaux import YoungDiagram

        heckeshape = verification.heckeshape

        def drops_a_box(w):
            parts = list(heckeshape(w).parts)
            if len(w) > 5:
                parts[-1] -= 1
            return YoungDiagram(tuple(p for p in parts if p))

        monkeypatch.setattr(verification, "heckeshape", drops_a_box)
        report = verification.check_first_row_column(verification.FAST)
        assert not report.passed
        assert report.detail.startswith("failed on ")
        assert len(report.detail.removeprefix("failed on ").split()) > 5

    def test_failing_suite_gives_exit_one(self, capsys, monkeypatch):
        import heckelis.verification as verification
        from heckelis.verification import SuiteReport

        def broken(level):
            return SuiteReport("broken-suite", False, "synthetic failure")

        monkeypatch.setattr(verification, "ALL_SUITES", (broken,))
        assert run_cli(["verify", "--level", "fast"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] broken-suite" in out


class TestExact:
    def test_stdout_payload(self, capsys):
        assert run_cli(["exact", "--n", "4", "--q", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["distribution"]) == 9
        by_shape = {tuple(row["shape"]): row for row in payload["distribution"]}
        assert by_shape[(2, 1)] == {"shape": [2, 1], "num": "40", "den": "81"}
        e = payload["expected_lis"]
        assert Fraction(int(e["num"]), int(e["den"])) == Fraction(52, 27)

    @pytest.mark.parametrize(
        "n, q, digest",
        [
            (10, 5, "214eae977922b27fb857473cd4f8f1264ff0f4c7be47b8503e7b10e58b8975af"),
            (4, 3, "af9da3460a1ad62287a5a6688400a2d0996360b4ba1cea71867fdb50fa45befb"),
        ],
    )
    def test_stdout_bytes_pinned(self, n, q, digest, capsys):
        assert run_cli(["exact", "--n", n, "--q", q]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_output_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "dist.json"
        assert run_cli(["exact", "--n", "3", "--q", "2", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 3
        manifest = json.loads((tmp_path / "dist.json.manifest.json").read_text())
        assert manifest["subcommand"] == "exact"
        assert manifest["params"] == {"n": 3, "q": 2}

    def test_distribution_built_once(self, monkeypatch, capsys):
        calls = []

        def counted(n, q):
            calls.append((n, q))
            return exact_plancherel_hecke(n, q)

        monkeypatch.setattr(cli, "exact_plancherel_hecke", counted)
        monkeypatch.setattr(measures, "exact_plancherel_hecke", counted)
        assert run_cli(["exact", "--n", "10", "--q", "5"]) == 0
        assert calls == [(10, 5)]

    def test_guard_violation_is_usage_error(self, capsys):
        assert run_cli(["exact", "--n", "40", "--q", "3"]) == 2
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("n, q", [(11, 3), (4, 6)])
    def test_guard_message_pinned(self, n, q, capsys):
        assert run_cli(["exact", "--n", n, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: exact mode guard: n <= 10 and q <= 5 required, got n={n}, q={q}\n"
        )


SAMPLE_DIGESTS = [
    (100, 10, 500, 7, "bf70f60194bb34e1c49966bb86056a7fae8cf55dee74eacb39808abcaca5f108"),
    (60, 3, 200, 11, "f0b11e3c137b005b3f45f42e30852bbb368056f379d0eb8654f9eaca7ce1ed76"),
    # a first chunk of 465 letters, then a partial 535
    (1000, 30, 40, 2, "bfdb7cb8381cd030c1db44b90ee1cab41c44c12dc842f75a54f40d789d1939f4"),
]
SAMPLE_IDS = ["readme", "staircase-q3", "two-chunks-q30"]


def run_pinned_sample(tmp_path, n, q, trials, seed, digest):
    out = tmp_path / "s.csv"
    assert run_cli(["sample", "--n", n, "--q", q, "--trials", trials,
                    "--seed", seed, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSample:
    def test_csv_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(
                ["sample", "--n", "6", "--q", "3", "--trials", "8", "--seed", "5", "--out", out]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "trial,seed,shape,lis,lds"
        assert len(lines) == 2 + 8
        assert (tmp_path / "a.csv.manifest.json").exists()

    @pytest.mark.parametrize("n, q, trials, seed, digest", SAMPLE_DIGESTS, ids=SAMPLE_IDS)
    def test_bytes_pinned(self, n, q, trials, seed, digest, tmp_path, capsys):
        run_pinned_sample(tmp_path, n, q, trials, seed, digest)

    # the Python kernels, forced or as the fallback where no compiler runs, write the same bytes
    @pytest.mark.parametrize("fallback", ["python_kernel", "missing_compiler"])
    @pytest.mark.parametrize("n, q, trials, seed, digest", SAMPLE_DIGESTS, ids=SAMPLE_IDS)
    def test_bytes_pinned_on_the_python_kernels(self, n, q, trials, seed, digest, fallback,
                                                request, tmp_path, capsys):
        request.getfixturevalue(fallback)
        run_pinned_sample(tmp_path, n, q, trials, seed, digest)

    @pytest.mark.parametrize("n", [0, 30])
    def test_rows_follow_the_shape(self, n, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sample", "--n", n, "--q", "4", "--trials", "6", "--seed", "9", "--out", out]
        ) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 6
        for t, row in enumerate(rows):
            trial, seed, shape, lis, lds = row.split(",")
            parts = [int(p) for p in shape.split()]
            assert (int(trial), int(seed)) == (t, 9)
            assert int(lis) == (parts[0] if parts else 0)
            assert int(lds) == len(parts)
            assert sum(parts) <= n and (parts == []) == (n == 0)


    def test_words_past_int64_stop_at_the_staircase(self, kernel, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli(["sample", "--n", 10**20, "--q", 8, "--trials", 3, "--seed", 1,
                        "--out", out]) == 0
        rows = out.read_text().splitlines()[2:]
        assert [row.split(",")[2:] for row in rows] == [["8 7 6 5 4 3 2 1", "8", "8"]] * 3


def run_pinned_sweep(tmp_path, threads):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--n", "400", "--alpha-grid", "0.25", "0.45", "0.5", "0.75",
                    "1.0", "--k-grid", "0.5", "1", "2", "--trials", "20", "--seed", "7",
                    "--threads", threads, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b38317431f61294e370b6b935dd5baab8377340ea18d6af7685e0e4e4ec06e84")


class TestSweep:
    def test_unary_row_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            ["sweep", "--n", "40", "--alpha-grid", "0.0", "--trials", "12",
             "--seed", "3", "--threads", "1", "--out", out]
        ) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = rows[0].split(",")
        row = dict(zip(header, rows[1].split(",")))
        assert row["q"] == "1"
        assert row["mean_lis"] == "1.000000"
        assert row["sigma_lis"] == "0.000000"
        assert row["staircase_fraction"] == "1.000000"

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        files = []
        for threads in (1, 2):
            out = tmp_path / f"sweep_{threads}.csv"
            assert run_cli(
                ["sweep", "--n", "50", "--k-grid", "1.0", "0.5", "--trials", "130",
                 "--seed", "9", "--threads", threads, "--out", out]
            ) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    # both grids, with q from 4 to 400; the digest holds at any thread count
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bytes_pinned(self, threads, tmp_path, capsys):
        run_pinned_sweep(tmp_path, threads)

    @pytest.mark.parametrize("fallback", ["python_kernel", "missing_compiler"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bytes_pinned_on_the_python_kernels(self, threads, fallback, request, tmp_path,
                                                capsys):
        request.getfixturevalue(fallback)
        run_pinned_sweep(tmp_path, threads)

    def test_bytes_pinned_on_a_real_pool(self, monkeypatch, tmp_path, capsys):
        # small rows run serially at any --threads, so the pool is forced
        monkeypatch.setattr(asymptotics, "_WORKER_COST_S", 0.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_pinned_sweep(tmp_path, 2)
        assert json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["workers"] == 2

    def test_rows_share_one_pool(self, monkeypatch, fake_pool, tmp_path, capsys):
        # with workers made free the pool starts after the first row's
        # blocks of 1 and 2 trials, and the rest of each of the eight rows
        # goes to that one pool of one worker and this process, in one
        # block per process at least
        monkeypatch.setattr(asymptotics, "_WORKER_COST_S", 0.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_pinned_sweep(tmp_path, 2)
        assert fake_pool == [1]
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["workers"] == 2 and manifest["blocks"] >= 2 + 8 * 2

    def test_words_past_int64_are_a_usage_error(self, kernel, tmp_path, capsys):
        # the word kernel would draw every one of the 10**20 letters
        assert run_cli(["sweep", "--n", 10**20, "--alpha-grid", "0.1", "--trials", 1,
                        "--threads", 1, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: a trial may draw 100000000000000000000 letters, more than 2**63 - 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_requires_a_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--n", "10", "--trials", "2", "--out", out]) == 2

    def test_empty_words(self, tmp_path, capsys):
        # unlike curve, sweep needs no 2 sqrt(n) scale, which is 0 at n=0
        out = tmp_path / "sweep.csv"
        assert run_cli(
            ["sweep", "--n", "0", "--alpha-grid", "0", "--trials", "3",
             "--threads", "1", "--out", out]
        ) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text().splitlines()[2].startswith("0,1,alpha=0,3,0.000000,")


CURVE_DIGESTS = [
    (["--n", 400, "--q", 4, "--trials", 8, "--seed", 7, "--threads", 1],
     "04b58a2750ddf826af219f8e951dc91a11e148c8e2e200c4fe6b4acc6543c034",
     ("0.606756", "0.249975")),
    # q * q >= n: the sqrt regime
    (["--n", 900, "--q", 30, "--trials", 20, "--seed", 7, "--threads", 1],
     "1019bd0c33f64738d7063b19ca82dd899e87cea51946596499fedc0b12c95d6c",
     ("0.508333", "0.565833")),
    (["--n", 2000, "--q", 12, "--trials", 40, "--seed", 3, "--threads", 2],
     "c612974f5067038b7049583108e947b8f3c342f284a1f23e881906f6355fcbe0",
     ("0.446335", "0.083308")),
    # a first chunk of 210 letters, then a partial 190
    (["--n", 400, "--q", 20, "--trials", 50, "--seed", 5, "--threads", 1],
     "28d175efce4361243ad62f64e5da03b06704854e16bbb348a92004f6cc86ba05",
     ("0.510500", "0.568000")),
    # the benchmark's curve-staircase command at its recorded seed
    (["--n", 10000, "--q", 8, "--trials", 300, "--seed", 7, "--threads", 2],
     "9a109b7f60c4d4f03dbf1905ad43db97efe912233f2ab13ec147e21941399d73",
     ("0.484502", "0.124987")),
]
CURVE_IDS = ["staircase-q4", "sqrt-q30", "staircase-q12-threads2", "sqrt-q20-two-chunks",
             "bench-curve-staircase"]


def run_pinned_curve(tmp_path, capsys, args, digest, distances):
    out = tmp_path / "curve.csv"
    assert run_cli(["curve", *args, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"sup-norm distance to plancherel curve: {distances[0]}",
        f"sup-norm distance to staircase line:   {distances[1]}",
    ]


class TestCurve:
    def test_writes_curve_and_distances(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(
            ["curve", "--n", "100", "--q", "32", "--trials", "10",
             "--seed", "2", "--threads", "1", "--grid-points", "50", "--out", out]
        ) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "x,f_hat,plancherel_curve,line"
        assert len(rows) == 1 + 51
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["params"]["regime"] == "sqrt"
        assert "sup_distance_plancherel" in manifest["params"]
        assert "sup_distance_line" in manifest["params"]

    def test_zero_scale_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        import heckelis.cli

        monkeypatch.setattr(heckelis.cli, "sweep_at", lambda *a, **k: pytest.fail("sampled"))
        out = tmp_path / "c.csv"
        assert run_cli(["curve", "--n", "0", "--q", "4", "--trials", "1", "--out", out]) == 2
        assert "scale is 0" in capsys.readouterr().err

    @pytest.mark.parametrize("args, digest, distances", CURVE_DIGESTS, ids=CURVE_IDS)
    def test_bytes_pinned(self, args, digest, distances, tmp_path, capsys):
        run_pinned_curve(tmp_path, capsys, args, digest, distances)

    @pytest.mark.parametrize("fallback", ["python_kernel", "missing_compiler"])
    @pytest.mark.parametrize("args, digest, distances", CURVE_DIGESTS, ids=CURVE_IDS)
    def test_bytes_pinned_on_the_python_kernels(self, args, digest, distances, fallback,
                                                request, tmp_path, capsys):
        request.getfixturevalue(fallback)
        run_pinned_curve(tmp_path, capsys, args, digest, distances)

    @pytest.mark.parametrize("seconds_per_trial, workers, blocks", [
        # the compiled shape kernel's rate on this command on a 2-vCPU Xeon:
        # the 300 trials take 7 ms, less than a worker costs, so the timing
        # blocks of 1, 2, ..., 128 trials and the last 45 all run here
        (23e-6, 1, 9),
        # at 1 ms a trial, blocks of 1, 2, 4, 8 and 16 trials take 30 ms, and
        # the 269 trials left go to a pool and this process, 37 blocks of
        # sqrt(2 * 269 ms * 0.2 ms / 2) = 7.3 ms each
        (1e-3, 2, 5 + 37),
    ])
    def test_benchmark_command_pools_by_its_rate(self, seconds_per_trial, workers, blocks,
                                                 monkeypatch, fake_pool, tmp_path, capsys):
        # the scheduler's clock reads the time the block's trials would take
        # at the given rate, so the choice does not depend on this host
        clock = [0.0]
        sweep_block = asymptotics._sweep_block

        def timed_block(args):
            clock[0] += (args[4] - args[3]) * seconds_per_trial
            return sweep_block(args)

        monkeypatch.setattr(asymptotics, "_sweep_block", timed_block)
        monkeypatch.setattr(asymptotics, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_pinned_curve(tmp_path, capsys, *CURVE_DIGESTS[-1])
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert (manifest["workers"], manifest["blocks"]) == (workers, blocks)
        assert fake_pool == ([] if workers == 1 else [workers - 1])

    def test_staircase_regime_selected_for_small_alphabet(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(
            ["curve", "--n", "100", "--q", "4", "--trials", "10",
             "--seed", "2", "--threads", "1", "--grid-points", "20", "--out", out]
        ) == 0
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["params"]["regime"] == "staircase"


@pytest.mark.parametrize(
    "args, params",
    [
        (["sample", "--n", 30, "--q", 4, "--trials", 5],
         {"n": 30, "q": 4, "trials": 5}),
        (["sweep", "--n", 30, "--alpha-grid", 0.5, "--trials", 5, "--threads", 1],
         {"n": 30, "trials": 5, "alpha_grid": [0.5], "k_grid": [], "snapshots": 0}),
        (["curve", "--n", 30, "--q", 4, "--trials", 5, "--threads", 2, "--grid-points", 4],
         {"n": 30, "q": 4, "trials": 5, "regime": "staircase"}),
    ],
    ids=["sample", "sweep", "curve"],
)
def test_manifest_names_the_kernel(args, params, kernel, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli([*args, "--seed", 6, "--out", out]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["kernel"] == kernel
    # tiny runs, so sweep and curve run serially
    assert manifest.get("workers") == (None if args[0] == "sample" else 1)
    assert ("blocks" in manifest) == (args[0] != "sample")
    # outside params, so the CSV parameter line is the same for every kernel
    assert {k: v for k, v in manifest["params"].items() if not k.startswith("sup_")} == params
    assert out.read_text().splitlines()[0] == "# " + " ".join(
        f"{k}={v}" for k, v in sorted({**params, "seed": 6}.items()))


PATIENCE_DIGESTS = [
    (13, 4, 2000, 7,
     "18d2b6352edf880a18de33ac6432d0fd66f08a7c0e5f9cc00b45aba713866dce",
     "a18d87678458d1346ac87858600640e58f762b412a9a97c9d5f197da57d028b1"),
    (1000, 1, 300, 3,
     "b87ac47137c95fc70ec4ba3d0d97596e7edc4fe9d1b515768ff0e735a2aae22c",
     "ef745cb514dcb2e0a25435119d97a70c238f5c113dc4dc7afca0f49b1d33dccf"),
    (5, 3, 1537, 11,
     "335b326e104b03971c2f4acb8bd495a76b58d95a92ca25da854237c62b178391",
     "2354f5555704f6eb897fd19560cae3b625c45a3f2094f7c211d0d4e2e196bf5a"),
    (1, 5, 50, 3,
     "d60a0a36fc0447358e264a76cf7cfd033bfe6f1773623472746d712abec5f5df",
     "ffdaac8edea191c792e6a0b01eacf80c7e8d04c3a02f3d89e0fba1bf52ba1cce"),
]
PATIENCE_IDS = ["13x4", "1000x1", "5x3", "1x5"]


def run_pinned_patience(tmp_path, ranks, copies, trials, seed, histogram, pile_sizes):
    """Run ``patience``, check both CSVs against their digests and return the manifest."""
    assert run_cli(["patience", "--ranks", ranks, "--copies", copies,
                    "--trials", trials, "--seed", seed, "--out", tmp_path / "deck"]) == 0
    for name, digest in [("histogram", histogram), ("pile_sizes", pile_sizes)]:
        data = (tmp_path / f"deck_{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    return json.loads((tmp_path / "deck.manifest.json").read_text())


class TestPatience:
    def test_writes_both_csvs(self, tmp_path, capsys):
        out = tmp_path / "deck"
        assert run_cli(
            ["patience", "--ranks", "4", "--copies", "2", "--trials", "50",
             "--seed", "6", "--out", out]
        ) == 0
        hist = (tmp_path / "deck_histogram.csv").read_text().splitlines()
        sizes = (tmp_path / "deck_pile_sizes.csv").read_text().splitlines()
        assert hist[1] == "pile_count,frequency"
        assert sizes[1] == "position,mean_size"
        total = sum(int(r.split(",")[1]) for r in hist[2:])
        assert total == 50

    @pytest.mark.parametrize("ranks, copies, trials, seed, histogram, pile_sizes",
                             PATIENCE_DIGESTS, ids=PATIENCE_IDS)
    def test_bytes_pinned(self, ranks, copies, trials, seed, histogram, pile_sizes,
                          tmp_path, capsys):
        run_pinned_patience(tmp_path, ranks, copies, trials, seed, histogram, pile_sizes)

    # the numpy dealer, forced or as the fallback where no compiler runs, writes the same bytes
    @pytest.mark.parametrize("fallback", ["numpy_dealer", "missing_compiler"])
    @pytest.mark.parametrize("ranks, copies, trials, seed, histogram, pile_sizes",
                             PATIENCE_DIGESTS, ids=PATIENCE_IDS)
    def test_bytes_pinned_on_the_numpy_dealer(self, ranks, copies, trials, seed, histogram,
                                              pile_sizes, fallback, request, tmp_path, capsys):
        request.getfixturevalue(fallback)
        manifest = run_pinned_patience(tmp_path, ranks, copies, trials, seed, histogram,
                                       pile_sizes)
        assert manifest["dealer"] == "numpy"

    def test_manifest_names_the_dealer(self, dealer, tmp_path, capsys):
        out = tmp_path / "deck"
        assert run_cli(["patience", "--ranks", "4", "--copies", "2", "--trials", "30",
                        "--seed", "6", "--out", out]) == 0
        manifest = json.loads((tmp_path / "deck.manifest.json").read_text())
        assert manifest["dealer"] == dealer
        # outside params, so the CSV parameter line is the same for both dealers
        assert manifest["params"] == {"ranks": 4, "copies": 2, "trials": 30}
        assert (tmp_path / "deck_histogram.csv").read_text().splitlines()[0] == (
            "# copies=2 ranks=4 seed=6 trials=30")

    def test_deck_too_large_for_memory_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # what numpy raises for a deck of 10**10 cards, without allocating it
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(10000000000,) and data type int64")

        monkeypatch.setattr(cli, "deck_simulation", out_of_memory)
        assert run_cli(["patience", "--ranks", "100000", "--copies", "100000",
                        "--trials", "1", "--out", tmp_path / "deck"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: Unable to allocate 74.5 GiB for an array with shape "
                                "(10000000000,) and data type int64\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_parameter_value(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(["sample", "--n", "-3", "--q", "2", "--trials", "1", "--out", out])
        assert code == 2
        assert "n must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["curve", "--n", "0", "--q", "4", "--trials", "1", "--threads", "1"],
            ["sample", "--n", "-3", "--q", "2", "--trials", "1"],
            ["sample", "--n", "3", "--q", "2", "--trials", "0"],
            ["sweep", "--n", "100", "--alpha-grid", "inf", "--trials", "1"],
            ["sweep", "--n", "100", "--k-grid", "inf", "--trials", "1"],
            ["sweep", "--n", "100", "--alpha-grid", "nan", "--trials", "1"],
            ["sweep", "--n", "100", "--k-grid", "nan", "--trials", "1"],
            ["sweep", "--n", "100", "--alpha-grid", "200", "--trials", "1"],
            ["sweep", "--n", "100", "--alpha-grid", "10", "--trials", "1"],
            ["sample", "--n", "3", "--q", str(10**20), "--trials", "1"],
            ["curve", "--n", "3", "--q", str(10**20), "--trials", "1"],
        ],
    )
    def test_bad_input_leaves_no_file(self, args, tmp_path, capsys):
        assert run_cli(args + ["--out", tmp_path / "x.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "n, q, message",
        [(-4, 3, "n must be >= 0, got -4"), (10, 0, "q must be >= 1, got 0")],
    )
    def test_curve_names_the_bad_size(self, n, q, message, tmp_path, capsys):
        assert run_cli(["curve", "--n", n, "--q", q, "--trials", "1",
                        "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "n, trials, message",
        [(-3, 1, "n must be >= 0, got -3"), (10, 0, "trials must be >= 1, got 0")],
    )
    def test_sweep_names_the_bad_size(self, n, trials, message, tmp_path, capsys):
        assert run_cli(["sweep", "--n", n, "--alpha-grid", "0.5", "--trials", trials,
                        "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--n", "-3", "--k-grid", "1"], "n must be >= 0, got -3"),
            (["--n", "100", "--k-grid", "0"], "q rounds to 0, must be >= 1"),
            (["--n", "100", "--k-grid", "nan"], "k must be finite, got nan"),
            (["--n", "100", "--alpha-grid", "200"], "q is out of range at n=100, alpha=200"),
            (["--n", "100", "--alpha-grid", "0.5", "--k-grid", "inf"],
             "k must be finite, got inf"),
            # q = 10**20 is a float that fits, but not an int64 letter
            (["--n", "100", "--alpha-grid", "0.5", "10"],
             "q must be <= 2**63 - 1, got 100000000000000000000"),
        ],
        ids=["negative-n", "q-rounds-to-0", "nan", "q-overflow", "second-grid",
             "q-past-int64"],
    )
    def test_sweep_grid_error_before_sampling(self, grid, message, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(cli, "sweep_at", lambda *a, **k: pytest.fail("sampled"))
        assert run_cli(["sweep", *grid, "--trials", "1", "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_failure_while_writing_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def one_shape_then_fail(*args):
            yield YoungDiagram((1,))
            raise ValueError("sampling failed")

        monkeypatch.setattr(cli, "trial_shapes", one_shape_then_fail)
        out = tmp_path / "x.csv"
        assert run_cli(["sample", "--n", "1", "--q", "2", "--trials", "2", "--out", out]) == 2
        assert capsys.readouterr().err == "error: sampling failed\n"
        assert list(tmp_path.iterdir()) == []

        # a manifest that cannot be written takes its data files with it
        monkeypatch.undo()
        monkeypatch.chdir(tmp_path)
        for args, out in [
            (["sample", "--n", "5", "--q", "3", "--trials", "2", "--seed", "1"], "s.csv"),
            (["exact", "--n", "3", "--q", "2"], "e.json"),
            (["sweep", "--n", "5", "--alpha-grid", "1.0", "--trials", "2"], "w.csv"),
            (["curve", "--n", "5", "--q", "3", "--trials", "2"], "c.csv"),
            (["patience", "--ranks", "3", "--copies", "2", "--trials", "2"], "deck"),
        ]:
            blocker = tmp_path / f"{out}.manifest.json"
            blocker.mkdir()
            assert run_cli(args + ["--out", out]) == 2, args[0]
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert list(tmp_path.iterdir()) == [blocker], args[0]
            blocker.rmdir()

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--n", "3", "--q", "2", "--trials", "1"],
            ["sweep", "--n", "10", "--alpha-grid", "1.0", "--trials", "2"],
            ["curve", "--n", "10", "--q", "4", "--trials", "2"],
            ["patience", "--ranks", "3", "--copies", "2", "--trials", "2"],
        ],
        ids=["sample", "sweep", "curve", "patience"],
    )
    def test_negative_seed_rejected_at_parse(self, args, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--seed", "-1", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, option",
        [
            (["sweep", "--n", "10", "--alpha-grid", "1.0", "--trials", "2"], "--threads"),
            (["curve", "--n", "10", "--q", "4", "--trials", "2"], "--threads"),
            (["curve", "--n", "10", "--q", "4", "--trials", "2"], "--grid-points"),
        ],
    )
    def test_below_one_rejected_at_parse(self, args, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + [option, "0", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        assert f"{option}: must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestProcessStartup:
    # no package code calls BLAS or starts a pool on import, so a process
    # that has imported the CLI runs one thread and has no pool modules
    SCRIPT = (
        "print(json.dumps({"
        "'blas': os.environ.get('OPENBLAS_NUM_THREADS'), "
        "'threads': len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None, "
        "'pool': sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules))}))"
    )

    def test_one_thread_and_no_pool_modules(self):
        seen = child_after_import(self.SCRIPT, {})
        assert seen["blas"] == "1"
        assert seen["threads"] in (1, None)
        assert seen["pool"] == []

    def test_user_setting_wins(self):
        seen = child_after_import(self.SCRIPT, {"OPENBLAS_NUM_THREADS": "2"})
        assert seen["blas"] == "2"


class TestSeedEnvOverride:
    def test_environment_default(self, tmp_path):
        # the child imports the same heckelis as this process, installed or from src
        package_root = Path(heckelis.__file__).resolve().parents[1]
        script = "; ".join(
            [
                "from heckelis.cli import build_parser",
                "args = build_parser().parse_args(['sample', '--n', '2', '--q', '2', '--trials', '1', '--out', 'x'])",
                "print(args.seed)",
            ]
        )
        env_out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"HECKELIS_SEED": "777", "PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
            cwd=str(tmp_path),
        )
        assert env_out.stdout.strip() == "777", (
            f"child exited {env_out.returncode}; stderr:\n{env_out.stderr}"
        )

    @pytest.mark.parametrize("args", EVERY_SUBCOMMAND)
    def test_bad_value_is_usage_error(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HECKELIS_SEED", "abc")
        monkeypatch.chdir(tmp_path)
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: HECKELIS_SEED must be an integer, got 'abc'\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", EVERY_SUBCOMMAND)
    def test_negative_value_is_usage_error(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HECKELIS_SEED", "-3")
        monkeypatch.chdir(tmp_path)
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: HECKELIS_SEED must be >= 0, got '-3'\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
