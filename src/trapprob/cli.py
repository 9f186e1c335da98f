"""Command-line interface: reproducible, scriptable experiments.

Subcommands: ``bessel`` (kernel/bracket tables), ``disk`` (exact disk-trap
curves), ``simulate`` (raw trajectory records), ``verify`` (theorem bound
reports), ``figures`` (capture/survival series with SVG plots) and
``conjecture`` (deviation probe).  All randomness is controlled by --seed;
every file-producing invocation writes a JSON run manifest alongside its
outputs.  Exit codes: 0 success, 1 domain error, 2 theorem hypothesis not
satisfied, 3 convergence failure, 64 usage error.
"""

import argparse
import dataclasses
import math
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

import trapprob
from trapprob.conformal import PlanePoint, make_segment_trap
from trapprob.disk_oracle import f_disk, hunt_approx, p_disk
from trapprob.errors import CapacityError, ConvergenceError, DomainError, HypothesisError, require_count
from trapprob.reporting import PALETTE, csv_lines, svg_lineplot, write_csv, write_manifest
from trapprob.segment_sim import SAMPLER_STREAM
from trapprob.specfun import _k0_bracket, _k0_values, _phi_partial, bessel_i
from trapprob.verify import (
    DEFAULT_RADII,
    BoundReport,
    check_theorem1,
    check_theorem2,
    conjecture_probe,
    figure_series,
    release_and_sample,
)

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit for usage errors, reading
    every negative number (-1e-3, -.5, -inf, -nan) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern admits only -5 and -.5 forms
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _grid(text):
    """Parse a comma-separated list of floats."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty grid")
    return values


def _time_grid(args):
    """The log-spaced grid of --t-points times from --t-min to --t-max, each
    a positive finite double."""
    if not (args.t_min > 0.0 and args.t_max > 0.0):
        raise DomainError(f"need positive --t-min and --t-max, got {args.t_min!r} and {args.t_max!r}")
    if not (args.t_min < math.inf and args.t_max < math.inf):
        raise DomainError(f"need finite --t-min and --t-max, got {args.t_min!r} and {args.t_max!r}")
    if args.t_points < 1:
        raise DomainError(f"--t-points must be >= 1, got {args.t_points}")
    return _log_grid("time", args.t_min, args.t_max, args.t_points, "--t-points")


def _log_grid(name, lo, hi, points, flag):
    """``points`` log-spaced values from lo to hi; DomainError naming
    ``flag`` if they do not fit in memory, and unless each is a finite
    double."""
    too_many = DomainError(f"{flag} {points} is too many points: the {name} grid does not fit in memory")
    if points > np.iinfo(np.intp).max:  # from 2^63 on numpy would build an empty range
        raise too_many
    try:
        with np.errstate(over="ignore"):  # 10**log10(hi) may round past the largest double
            grid = np.logspace(math.log10(lo), math.log10(hi), points)
    except (ValueError, MemoryError):  # numpy refuses the size, or cannot allocate it
        raise too_many from None
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"the {name} grid from {lo!r} to {hi!r} leaves the double range")
    return grid


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _manifest(args, path):
    """Write the provenance of this invocation to ``path``: rerunning with
    the same command and seed reproduces the CSV outputs byte for byte.
    ``sampler_stream`` names the version of the sampler's random stream."""
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command") and not k.startswith("_")}
    manifest = {
        "command": args.command,
        "seed": int(getattr(args, "seed", 0)),
        "parameters": params,
        "tool_version": trapprob.__version__,
        "sampler_stream": SAMPLER_STREAM,
        "started": args._started,
        "finished": _now(),
    }
    write_manifest(path, manifest)


def _emit_table(args, table):
    """Write a table, {column name: sequence of scalars}, as a CSV to --out
    (plus a manifest next to it) or to stdout."""
    if args.out:
        write_csv(args.out, table)
        _manifest(args, args.out + ".manifest.json")
    else:
        sys.stdout.writelines(csv_lines(table))


def _write_run(args, tables):
    """Make --out-dir, write each {file name: table} CSV in it and then its
    manifest.json; a command writes any other files after this."""
    os.makedirs(args.out_dir, exist_ok=True)
    for name, table in tables.items():
        write_csv(os.path.join(args.out_dir, name), table)
    _manifest(args, os.path.join(args.out_dir, "manifest.json"))


def _bessel_table(xs, max_m):
    """The bessel table's columns x, k0, k0_err, i0, lower_0, upper_0, ...,
    upper_max_m: the k0 columns from one kernel call, the i0 column from one
    series pass, every bracket's prefix sum from one pass over the grid and
    each order's brackets from one array call."""
    i0 = bessel_i(0, xs)
    k0, k0_err = _k0_values(xs)
    table = {"x": xs, "k0": k0, "k0_err": k0_err, "i0": i0}
    for m, partial in enumerate(_phi_partial(xs, max_m)):
        table[f"lower_{m}"], table[f"upper_{m}"] = _k0_bracket(xs, m, partial, i0)
    return {name: column.tolist() for name, column in table.items()}


def _cmd_bessel(args):
    if not 0.0 < args.x_min < args.x_max < math.inf:
        raise DomainError("need 0 < x-min < x-max < inf")
    points = require_count(args.points, "--points", minimum=0)
    max_m = require_count(args.max_m, "--max-m", minimum=0)
    _emit_table(args, _bessel_table(_log_grid("x", args.x_min, args.x_max, points, "--points"), max_m))
    return 0


def _cmd_disk(args):
    # time by time, so the first time that some function refuses ends the command
    r, rt = args.r, args.rt
    columns = zip(*[(t, p_disk(r, rt, t), f_disk(r, rt, t), hunt_approx(r, rt, t, "raw"), hunt_approx(r, rt, t, "tau0"))
                    for t in args.t_grid])
    _emit_table(args, dict(zip(("t", "p_disk", "f_disk", "hunt_raw", "hunt_tau0"), columns)))
    return 0


def _cmd_simulate(args):
    trap = make_segment_trap(args.a, args.b)
    records = release_and_sample(trap, args.radius, args.n, args.tmax, args.seed)

    # .tolist() gives Python scalars, which format_cell prints as 0/1 and
    # %.12g; hits lie on the axis, so y is 0 there and empty when censored
    censored = records.censored.tolist()
    xs = [None if cen else x for x, cen in zip(records.x.tolist(), censored)]
    ys = [None if cen else 0.0 for cen in censored]
    table = {"index": range(len(records)), "time": records.time.tolist(), "x": xs, "y": ys, "censored": censored,
             "steps": records.steps.tolist()}
    _write_run(args, {"records.csv": table})
    n_censored = int(records.censored.sum())
    mean_steps = float(records.steps.mean())
    print(f"simulated {args.n} trajectories: {n_censored} censored, mean steps {mean_steps:.2f}")
    return 0


def _cmd_verify(args):
    trap = make_segment_trap(args.a, args.b)
    if args.which == "theorem1":
        reports = [check_theorem1(trap, args.r, args.tau, args.n, args.seed)]
    else:
        lower, upper = check_theorem2(trap, PlanePoint(args.zx, args.zy), args.tau, args.n, args.seed)
        reports = [rep for rep in (lower, upper) if rep is not None]
    records = [dataclasses.asdict(r) for r in reports]
    table = {field.name: [rec[field.name] for rec in records] for field in dataclasses.fields(BoundReport)}
    _write_run(args, {"bound_reports.csv": table})
    write_manifest(os.path.join(args.out_dir, "bound_reports.json"), records)
    for rep in reports:
        print(f"{rep.label}: {rep.verdict} (margin {rep.margin:.3e}, slack {rep.statistical_slack:.3e})")
    return 0


# (file stem, CSV columns, quantity plotted) of each figure, and the
# (index in its CSV columns, label, dash) of the three series it plots per
# radius
_FIGURES = (
    ("figure1", ["r", "t", "prop", "ci_lo", "ci_hi", "p_disk", "hunt_raw", "hunt_tau0"], "proportion captured"),
    ("figure2", ["r", "t", "surv", "surv_ci_lo", "surv_ci_hi", "surv_p_disk", "surv_hunt_raw", "surv_hunt_tau0"],
     "proportion not captured"),
)
_FIGURE_SERIES = ((2, "simulated", None), (5, "disk", "6,3"), (7, "log asympt", "2,3"))


def _cmd_figures(args):
    times = _time_grid(args)
    table = figure_series(args.radii, times, n=args.n, seed=args.seed)
    _write_run(args, {f"{stem}.csv": {c: table[c] for c in cols} for stem, cols, _ in _FIGURES})
    for stem, cols, title in _FIGURES:
        series = []
        for idx, r in enumerate(args.radii):
            block = slice(idx * len(times), (idx + 1) * len(times))  # radius-major: one block per radius
            for col, label, dash in _FIGURE_SERIES:
                series.append({
                    "label": f"r={r:g} {label}",
                    "x": table["t"][block],
                    "y": table[cols[col]][block],
                    "color": PALETTE[idx % len(PALETTE)],
                    "dash": dash,
                })
        svg_lineplot(
            os.path.join(args.out_dir, f"{stem}.svg"),
            series,
            title=f"Segment trap: {title} (n={args.n} per radius, seed {args.seed})",
            xlabel="time",
            ylabel=title,
        )
    print(f"wrote figure1/figure2 CSV+SVG under {args.out_dir}")
    return 0


def _cmd_conjecture(args):
    trap = make_segment_trap(args.a, args.b)
    table = conjecture_probe(trap, args.radii, _time_grid(args), args.n, args.seed)
    _write_run(args, {"conjecture.csv": table})
    worst = max(table["sup_rel_survival"])
    print(f"wrote conjecture.csv; worst survival-relative deviation {worst:.4f}")
    return 0


def build_parser():
    parser = _Parser(prog="trapprob", description=__doc__)
    parser.add_argument("--version", action="version", version=f"trapprob {trapprob.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several subcommands
    segment = _Parser(add_help=False)
    segment.add_argument("--a", type=float, default=-1.0)
    segment.add_argument("--b", type=float, default=1.0)
    run = _Parser(add_help=False)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out-dir", default=".")
    grid = _Parser(add_help=False)
    grid.add_argument("--radii", type=_grid, default=list(DEFAULT_RADII))
    grid.add_argument("--t-min", type=float, default=0.1)
    grid.add_argument("--t-max", type=float, default=1e5)

    p = sub.add_parser("bessel", help="K0/I0 tables with truncation brackets")
    p.add_argument("--x-min", type=float, default=1e-4)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_bessel)

    p = sub.add_parser("disk", help="exact disk-trap capture curves")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--rt", type=float, required=True)
    p.add_argument("--t-grid", type=_grid, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_disk)

    p = sub.add_parser("simulate", parents=[segment, run], help="raw trajectory records for a segment trap")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tmax", type=float, default=1e5)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="theorem bound reports")
    which = p.add_subparsers(dest="which", required=True)
    t1 = which.add_parser("theorem1", parents=[segment, run])
    t1.add_argument("--r", type=float, required=True)
    t2 = which.add_parser("theorem2", parents=[segment, run])
    t2.add_argument("--zx", type=float, required=True)
    t2.add_argument("--zy", type=float, default=0.0)
    for p in (t1, t2):
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--n", type=int, default=100000)
        p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figures", parents=[run, grid], help="capture/survival data series and SVG plots")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--t-points", type=int, default=25)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("conjecture", parents=[segment, run, grid], help="deviation probe against the disk surrogate")
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--t-points", type=int, default=13)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = _now()
    try:
        return args.func(args)
    except CapacityError:  # only the walks' records, n per radius, can outgrow memory
        print(f"trapprob: domain error: --n {args.n} is too many trajectories: their records do not fit in memory",
              file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"trapprob: domain error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(f"trapprob: hypothesis not satisfied: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"trapprob: convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
