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
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

import trapprob
from trapprob.conformal import PlanePoint, make_segment_trap
from trapprob.disk_oracle import f_disk, hunt_approx, p_disk
from trapprob.errors import ConvergenceError, DomainError, HypothesisError
from trapprob.reporting import RunManifest, format_cell, svg_lineplot, write_csv, write_manifest
from trapprob.segment_sim import SAMPLER_STREAM
from trapprob.specfun import bessel_i, k0, k0_bounds
from trapprob.verify import (
    _frame,
    check_theorem1,
    check_theorem2,
    conjecture_probe,
    figure_series,
    release_and_sample,
)

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit for usage errors."""

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


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _manifest(args, started, out_dir=None, path=None):
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and not k.startswith("_") and not callable(v)
    }
    manifest = RunManifest(
        command=args.command,
        seed=int(getattr(args, "seed", 0)),
        parameters={k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()},
        tool_version=trapprob.__version__,
        sampler_stream=SAMPLER_STREAM,
        started=started,
        finished=_now(),
    )
    if path is None:
        path = os.path.join(out_dir, "manifest.json")
    write_manifest(path, manifest)


def _emit_table(args, header, rows):
    """Write a CSV to --out (plus a manifest next to it) or print to stdout."""
    if getattr(args, "out", None):
        started = args._started
        write_csv(args.out, header, rows)
        _manifest(args, started, path=args.out + ".manifest.json")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(format_cell(v) for v in row))


def _cmd_bessel(args):
    if args.x_min <= 0 or args.x_max <= args.x_min:
        raise DomainError("need 0 < x-min < x-max")
    xs = np.logspace(math.log10(args.x_min), math.log10(args.x_max), args.points)
    orders = list(range(args.max_m + 1))
    header = ["x", "k0", "k0_err", "i0"]
    for m in orders:
        header += [f"lower_{m}", f"upper_{m}"]
    rows = []
    for x in xs:
        kv = k0(float(x))
        row = [float(x), kv.value, kv.abs_error_bound, bessel_i(0, float(x))]
        for m in orders:
            lo, hi = k0_bounds(float(x), m)
            row += [lo, hi]
        rows.append(row)
    _emit_table(args, header, rows)
    return 0


def _cmd_disk(args):
    grid = args.t_grid if args.t_grid is not None else args.tau_grid
    header = ["t", "p_disk", "f_disk", "hunt_raw", "hunt_tau0"]
    rows = []
    for t in grid:
        rows.append(
            [
                t,
                p_disk(args.r, args.rt, t),
                f_disk(args.r, args.rt, t),
                hunt_approx(args.r, args.rt, t, "raw"),
                hunt_approx(args.r, args.rt, t, "tau0"),
            ]
        )
    _emit_table(args, header, rows)
    return 0


def _cmd_simulate(args):
    started = args._started
    trap = make_segment_trap(args.a, args.b)
    c, h = _frame(trap)
    records = release_and_sample(trap, args.radius, args.n, args.tmax, args.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    # .tolist() gives Python scalars, which format_cell prints as 0/1 and
    # %.12g; hits lie on the axis, so y is 0 there and empty when censored
    censored = records.censored.tolist()
    xs = [None if cen else x for x, cen in zip((c + h * records.x).tolist(), censored)]
    ys = [None if cen else 0.0 for cen in censored]
    write_csv(
        os.path.join(args.out_dir, "records.csv"),
        ["index", "time", "x", "y", "censored", "steps"],
        zip(range(len(records)), (records.time * h * h).tolist(), xs, ys, censored, records.steps.tolist()),
    )
    _manifest(args, started, out_dir=args.out_dir)
    n_censored = int(records.censored.sum())
    mean_steps = float(records.steps.mean())
    print(f"simulated {args.n} trajectories: {n_censored} censored, mean steps {mean_steps:.2f}")
    return 0


def _report_rows(reports):
    header = ["label", "lhs", "rhs", "margin", "statistical_slack", "verdict"]
    rows = [
        [r.label, r.lhs, r.rhs, r.margin, r.statistical_slack, r.verdict] for r in reports
    ]
    return header, rows


def _cmd_verify(args):
    started = args._started
    trap = make_segment_trap(args.a, args.b)
    if args.which == "theorem1":
        reports = [check_theorem1(trap, args.r, args.tau, args.n, args.seed)]
    else:
        lower, upper = check_theorem2(trap, PlanePoint(args.zx, args.zy), args.tau, args.n, args.seed)
        reports = [rep for rep in (lower, upper) if rep is not None]
    os.makedirs(args.out_dir, exist_ok=True)
    header, rows = _report_rows(reports)
    write_csv(os.path.join(args.out_dir, "bound_reports.csv"), header, rows)
    with open(os.path.join(args.out_dir, "bound_reports.json"), "w", encoding="utf-8") as fh:
        json.dump([dataclasses.asdict(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    _manifest(args, started, out_dir=args.out_dir)
    for rep in reports:
        print(f"{rep.label}: {rep.verdict} (margin {rep.margin:.3e}, slack {rep.statistical_slack:.3e})")
    return 0


_FIG1_COLUMNS = ["r", "t", "prop", "ci_lo", "ci_hi", "p_disk", "hunt_raw", "hunt_tau0"]
_FIG2_COLUMNS = ["r", "t", "surv", "surv_ci_lo", "surv_ci_hi", "surv_p_disk", "surv_hunt_raw", "surv_hunt_tau0"]


def _cmd_figures(args):
    started = args._started
    t_grid = np.logspace(math.log10(args.t_min), math.log10(args.t_max), args.t_points)
    rows = figure_series(args.radii, t_grid, n=args.n, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(
        os.path.join(args.out_dir, "figure1.csv"),
        _FIG1_COLUMNS,
        [[row[c] for c in _FIG1_COLUMNS] for row in rows],
    )
    write_csv(
        os.path.join(args.out_dir, "figure2.csv"),
        _FIG2_COLUMNS,
        [[row[c] for c in _FIG2_COLUMNS] for row in rows],
    )

    for fig, prop_key, disk_key, hunt_key, title in (
        ("figure1.svg", "prop", "p_disk", "hunt_tau0", "proportion captured"),
        ("figure2.svg", "surv", "surv_p_disk", "surv_hunt_tau0", "proportion not captured"),
    ):
        series = []
        for idx, r in enumerate(args.radii):
            sub = [row for row in rows if row["r"] == r]
            ts = [row["t"] for row in sub]
            color = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"][idx % 4]
            series.append(
                {"label": f"r={r:g} simulated", "x": ts, "y": [row[prop_key] for row in sub], "color": color}
            )
            series.append(
                {
                    "label": f"r={r:g} disk",
                    "x": ts,
                    "y": [row[disk_key] for row in sub],
                    "color": color,
                    "dash": "6,3",
                }
            )
            series.append(
                {
                    "label": f"r={r:g} log asympt",
                    "x": ts,
                    "y": [row[hunt_key] for row in sub],
                    "color": color,
                    "dash": "2,3",
                }
            )
        svg_lineplot(
            os.path.join(args.out_dir, fig),
            series,
            title=f"Segment trap: {title} (n={args.n} per radius, seed {args.seed})",
            xlabel="time",
            ylabel=title,
        )
    _manifest(args, started, out_dir=args.out_dir)
    print(f"wrote figure1/figure2 CSV+SVG under {args.out_dir}")
    return 0


def _cmd_conjecture(args):
    started = args._started
    trap = make_segment_trap(args.a, args.b)
    times = np.logspace(math.log10(args.t_min), math.log10(args.t_max), args.t_points)
    rows = conjecture_probe(trap, args.radii, times, args.n, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    header = list(rows[0].keys())
    write_csv(
        os.path.join(args.out_dir, "conjecture.csv"),
        header,
        [[row[c] for c in header] for row in rows],
    )
    _manifest(args, started, out_dir=args.out_dir)
    worst = max(row["sup_rel_survival"] for row in rows)
    print(f"wrote conjecture.csv; worst survival-relative deviation {worst:.4f}")
    return 0


def build_parser():
    parser = _Parser(prog="trapprob", description=__doc__)
    parser.add_argument("--version", action="version", version=f"trapprob {trapprob.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bessel", parents=[], help="K0/I0 tables with truncation brackets")
    p.add_argument("--x-min", type=float, default=1e-4)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_bessel)

    p = sub.add_parser("disk", help="exact disk-trap capture curves")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--rt", type=float, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--t-grid", type=_grid, default=None)
    grp.add_argument("--tau-grid", type=_grid, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_disk)

    p = sub.add_parser("simulate", help="raw trajectory records for a segment trap")
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tmax", type=float, default=1e5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="theorem bound reports")
    which = p.add_subparsers(dest="which", required=True)
    t1 = which.add_parser("theorem1")
    t1.add_argument("--a", type=float, default=-1.0)
    t1.add_argument("--b", type=float, default=1.0)
    t1.add_argument("--r", type=float, required=True)
    t1.add_argument("--tau", type=float, required=True)
    t1.add_argument("--n", type=int, default=100000)
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--out-dir", default=".")
    t1.set_defaults(func=_cmd_verify)
    t2 = which.add_parser("theorem2")
    t2.add_argument("--a", type=float, default=-1.0)
    t2.add_argument("--b", type=float, default=1.0)
    t2.add_argument("--zx", type=float, required=True)
    t2.add_argument("--zy", type=float, default=0.0)
    t2.add_argument("--tau", type=float, required=True)
    t2.add_argument("--n", type=int, default=100000)
    t2.add_argument("--seed", type=int, default=0)
    t2.add_argument("--out-dir", default=".")
    t2.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figures", help="capture/survival data series and SVG plots")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radii", type=_grid, default=[1.0, 5.0, 25.0, 125.0])
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=1e5)
    p.add_argument("--t-points", type=int, default=25)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("conjecture", help="deviation probe against the disk surrogate")
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--radii", type=_grid, default=[1.0, 5.0, 25.0, 125.0])
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=1e5)
    p.add_argument("--t-points", type=int, default=13)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = _now()
    try:
        return args.func(args)
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
