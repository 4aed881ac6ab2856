"""Command-line front end.

Subcommands:

* ``verify [--level fast|full]``: run the exact invariant suites.
* ``exact --n N --q Q [--out FILE]``: exact distribution plus expected LIS, JSON.
* ``sample --n N --q Q --trials T --seed S --out FILE``: per-trial CSV.
* ``sweep --n N (--alpha-grid ... | --k-grid ...) --trials T --seed S --out FILE``.
* ``curve --n N --q Q --trials T --seed S --out FILE``: mean rescaled profile
  against the reference curves (sqrt regime when ``q*q >= n``, staircase
  regime otherwise).
* ``patience --ranks R --copies C --trials T --seed S --out PREFIX``.

Every output artifact is accompanied by a ``<name>.manifest.json`` recording
the subcommand, full parameter set, base seed, code version, and the
kernel or dealer that ran (``compiled`` or the Python fallback); rerunning
with the same manifest parameters reproduces the data files byte for byte
(floats are printed with six fixed decimals, and all Monte Carlo
accumulation is integer counts merged commutatively).  A command that fails
to write any of its files leaves none of them, manifest included.

Exit codes: 0 success, 1 verification failure, 2 usage or guard error
(a size too large for memory included).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .asymptotics import (
    SQRT_REGIME,
    STAIRCASE_REGIME,
    _check_sizes,
    grid_q,
    line_curve,
    plancherel_curve,
    profile_function,
    sampling_kernel,
    sup_norm_distance,
    sweep_at,
    trial_shapes,
)
from .measures import exact_plancherel_hecke
from .patience import deck_simulation
from .verification import FAST, FULL, run_suites

SEED_ENV = "HECKELIS_SEED"
USAGE_ERROR = 2


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "12345")
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{SEED_ENV} must be >= 0, got {raw!r}")
    return seed


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _at_least(low: int):
    """Argument type: an integer of at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _write_atomic(path: str, write) -> None:
    """Run ``write`` on a temporary file beside ``path`` and rename the file
    to ``path`` only after ``write`` returns, so a failure leaves no file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _csv(params: dict, seed, header, rows):
    """Writer of the ``# key=value`` parameter line (seed included), the
    column names and ``rows``."""
    line = "# " + " ".join(f"{k}={v}" for k, v in sorted({**params, "seed": seed}.items()))

    def write(fh):
        fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    return write


def _publish(base: str, subcommand: str, params: dict, seed, files, **run) -> None:
    """Write each ``(path, write)`` of ``files``, then ``<base>.manifest.json``
    with the subcommand, ``params``, seed, code version and the ``run``
    fields, which say how the run went.  If any of them fails, the data
    files already written are removed, so no data file is left without its
    manifest."""

    def manifest(fh):
        fh.write(json.dumps({
            "subcommand": subcommand,
            "params": params,
            "seed": seed,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            **run,
        }, indent=2, sort_keys=True) + "\n")

    written = []
    try:
        for path, write in [*files, (base + ".manifest.json", manifest)]:
            _write_atomic(path, write)
            written.append(path)
    except BaseException:
        for path in written:
            os.remove(path)
        raise


def cmd_verify(args) -> int:
    failures = 0
    for report in run_suites(args.level):
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {report.name}: {report.detail}")
        failures += not report.passed
    print(f"verify level={args.level}: {'all suites passed' if not failures else f'{failures} suite(s) failed'}")
    return 0 if failures == 0 else 1


def cmd_exact(args) -> int:
    dist = exact_plancherel_hecke(args.n, args.q)
    expected = dist.expected_lis()
    payload = {
        "n": args.n,
        "q": args.q,
        "distribution": dist.to_json(),
        "expected_lis": {"num": str(expected.numerator), "den": str(expected.denominator)},
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _publish(args.out, "exact", {"n": args.n, "q": args.q}, None,
                 [(args.out, lambda fh: fh.write(text))])
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample(args) -> int:
    params = {"n": args.n, "q": args.q, "trials": args.trials}
    shapes = trial_shapes(args.n, args.q, args.seed, args.trials)
    rows = (
        [t, args.seed, " ".join(map(str, s.parts)), s.parts[0] if s.parts else 0, len(s.parts)]
        for t, s in enumerate(shapes)
    )
    _publish(args.out, "sample", params, args.seed,
             [(args.out, _csv(params, args.seed, ["trial", "seed", "shape", "lis", "lds"], rows))],
             kernel=sampling_kernel())
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    # every row's q is worked out, and so checked, before the first row is sampled
    grid = [(f"alpha={alpha:g}", grid_q(args.n, alpha=alpha)) for alpha in args.alpha_grid or []]
    grid += [(f"k={k:g}", grid_q(args.n, k=k)) for k in args.k_grid or []]
    if not grid:
        print("error: provide --alpha-grid and/or --k-grid", file=sys.stderr)
        return USAGE_ERROR
    params = {
        "n": args.n,
        "trials": args.trials,
        "alpha_grid": args.alpha_grid or [],
        "k_grid": args.k_grid or [],
        "snapshots": args.snapshots,
    }
    rows, kernels = [], set()
    for label, q in grid:
        res = sweep_at(args.n, q, args.trials, args.seed, threads=args.threads)
        kernels.add(res.kernel)
        rows.append([args.n, q, label, args.trials,
                     _fmt(res.mean_lis), _fmt(res.mean_lds),
                     _fmt(res.sigma_lis), _fmt(res.sigma_lds),
                     _fmt(res.staircase_fraction)])
    header = ["n", "q", "alpha_or_k", "trials", "mean_lis", "mean_lds",
              "sigma_lis", "sigma_lds", "staircase_fraction"]
    _publish(args.out, "sweep", params, args.seed, [(args.out, _csv(params, args.seed, header, rows))],
             kernel="+".join(sorted(kernels)))
    print(f"wrote {args.out}")
    return 0


def cmd_curve(args) -> int:
    # alphabet at or above sqrt(n) puts the shape in the sqrt scaling regime
    regime = SQRT_REGIME if args.q * args.q >= args.n else STAIRCASE_REGIME
    # bad sizes, then a zero scale, fail before sampling
    _check_sizes(args.n, args.trials, args.q)
    profile_function((), args.n, args.q, regime)
    res = sweep_at(args.n, args.q, args.trials, args.seed, threads=args.threads, profile=True)
    fhat = profile_function(res.mean_profile, args.n, args.q, regime)
    params = {"n": args.n, "q": args.q, "trials": args.trials, "regime": regime}
    grid_hi = max(fhat.max_support, 1.0)
    xs = [grid_hi * i / args.grid_points for i in range(args.grid_points + 1)]
    columns = (fhat.linear(xs), plancherel_curve(xs), line_curve(xs))
    rows = [list(map(_fmt, row)) for row in zip(xs, *(c.tolist() for c in columns))]
    dist_curve = sup_norm_distance(fhat, plancherel_curve)
    dist_line = sup_norm_distance(fhat, line_curve)
    # the distances go to the manifest only, not to the CSV parameter line
    manifest_params = {**params, "sup_distance_plancherel": _fmt(dist_curve),
                       "sup_distance_line": _fmt(dist_line)}
    _publish(args.out, "curve", manifest_params, args.seed, [
        (args.out, _csv(params, args.seed, ["x", "f_hat", "plancherel_curve", "line"], rows)),
    ], kernel=res.kernel)
    print(f"wrote {args.out}")
    print(f"sup-norm distance to plancherel curve: {_fmt(dist_curve)}")
    print(f"sup-norm distance to staircase line:   {_fmt(dist_line)}")
    return 0


def cmd_patience(args) -> int:
    stats = deck_simulation(args.ranks, args.copies, args.trials, args.seed)
    params = {"ranks": args.ranks, "copies": args.copies, "trials": args.trials}
    hist_path = args.out + "_histogram.csv"
    sizes_path = args.out + "_pile_sizes.csv"
    sizes = ([pos, _fmt(size)] for pos, size in enumerate(stats.mean_pile_sizes, start=1))
    _publish(args.out, "patience", params, args.seed, [
        (hist_path, _csv(params, args.seed, ["pile_count", "frequency"], stats.histogram.items())),
        (sizes_path, _csv(params, args.seed, ["position", "mean_size"], sizes)),
    ], dealer=stats.dealer)
    print(f"wrote {hist_path} and {sizes_path}")
    print(f"mean pile count: {stats.mean_piles:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelis",
        description="Insertion shapes of random words: exact measures, sweeps, patience sorting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact invariant suites")
    p.add_argument("--level", choices=[FAST, FULL], default=FAST)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact distribution and expected LIS")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sample", help="stream sampled shapes to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="LIS/LDS statistics over an alpha or k grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-grid", type=float, nargs="*", default=None)
    p.add_argument("--k-grid", type=float, nargs="*", default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), default=_default_seed())
    p.add_argument("--threads", type=_at_least(1), default=os.cpu_count() or 1)
    # recorded in the header and the manifest only; sweep writes no shapes
    p.add_argument("--snapshots", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("curve", help="mean rescaled shape against reference curves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), default=_default_seed())
    p.add_argument("--threads", type=_at_least(1), default=os.cpu_count() or 1)
    p.add_argument("--grid-points", type=_at_least(1), default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("patience", help="deck simulation histograms")
    p.add_argument("--ranks", type=int, required=True)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_patience)

    return parser


def main(argv=None) -> int:
    try:
        # build_parser reads HECKELIS_SEED, so a bad value is a usage error too
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err or type(err).__name__}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
