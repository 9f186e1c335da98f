"""The three perfbench workloads.

A workload is a ``setup(seed, work_dir)`` that imports the package afresh
and builds the inputs from the seed, and a ``run_pass(state, ledger)`` that
does one pass of work, checks its outputs and returns a :class:`Pass`.
Every pass of a run repeats the same inputs, so passes do identical work.

Every call into the package goes through a module attribute
(``pkg.verify.check_theorem1`` ...), so a tracer that rebinds those
attributes sees the calls.  Only calls into the package are timed; the
correctness checks run outside the timed sections.

Operations and how they end (see DESIGN.md):

* ``ok``: the call returned and its output passed the gate;
* ``failed``: the call raised, or its output broke a gate;
* ``known defect``: an outcome of a defect documented in the roadmap that
  the benchmark keeps visible, counted apart from ``failed``.
"""

import contextlib
import importlib
import io
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

PACKAGE_MODULES = ("trapprob", "trapprob.cli")


@dataclass
class Pass:
    wall_s: float  # time spent in calls into the package
    latencies_s: list  # one per timed call (check_theorem1 / figures run / p_disk)
    items: int  # trajectories (sampling workloads) or oracle and kernel calls


class Ledger:
    """Operations attempted in a run and how they ended."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = Counter()
        self.failures = []

    def ok(self, n=1):
        self.attempted += n

    def fail(self, what):
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def known_defect(self, kind):
        self.attempted += 1
        self.known_defects[kind] += 1


def import_package():
    """Import trapprob from scratch (numpy stays loaded) and return its modules."""
    for name in [m for m in sys.modules if m == "trapprob" or m.startswith("trapprob.")]:
        del sys.modules[name]
    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    mods = {name.rpartition(".")[2]: sys.modules[name] for name in sys.modules if name.startswith("trapprob.")}
    return SimpleNamespace(**mods)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# -- theorem1-sweep ---------------------------------------------------------

SWEEP_N = 2500  # trajectories per combo
SWEEP_TAU_MULTS = (1.1, 3.0, 10.0, 30.0)  # tau in units of (e/2) d^2
SWEEP_RADII = (1.0, 5.0, 25.0, 125.0)
# A combo whose expected capture mass n * f_disk is below this cannot be
# resolved by n trajectories: a "violated" verdict there is the known
# normal-slack defect on rare events, not a computed violation.
RESOLVABLE_MASS = 1.0


def sweep_setup(seed, work_dir):
    pkg = import_package()
    trap = pkg.conformal.make_segment_trap(-1.0, 1.0)
    base = 0.5 * math.e * trap.d**2
    combos = []
    for mult in SWEEP_TAU_MULTS:
        for r in SWEEP_RADII:
            tau = mult * base
            combos.append((r, tau, SWEEP_N * pkg.disk_oracle.f_disk(r, trap.r_T, tau)))
    return SimpleNamespace(pkg=pkg, trap=trap, combos=combos, seed=seed)


def sweep_pass(st, ledger):
    latencies = []
    verdicts = []
    for r, tau, _ in st.combos:
        t0 = perf_counter()
        try:
            verdicts.append(st.pkg.verify.check_theorem1(st.trap, r, tau, SWEEP_N, st.seed).verdict)
        except Exception as exc:  # a raise is a failed operation, not a crash
            verdicts.append(exc)
        latencies.append(perf_counter() - t0)
    for (r, tau, mass), verdict in zip(st.combos, verdicts):
        if isinstance(verdict, Exception):
            ledger.fail(f"check_theorem1(r={r:g}, tau={tau:g}) raised {verdict!r}")
        elif verdict != "violated":
            ledger.ok()
        elif mass < RESOLVABLE_MASS:
            ledger.known_defect("violated verdict where n * f_disk < 1")
        else:
            ledger.fail(f"check_theorem1(r={r:g}, tau={tau:g}) violated")
    return Pass(sum(latencies), latencies, SWEEP_N * len(st.combos))


# -- figures ----------------------------------------------------------------

FIGURES_N = 2500  # trajectories per release radius (4 default radii)
FIGURES_ROWS = 100  # 4 radii x 25 grid times
FIGURES_FILES = ("figure1.csv", "figure2.csv")


def figures_setup(seed, work_dir):
    pkg = import_package()
    out = Path(work_dir) / "figures"
    argv = ["figures", "--n", str(FIGURES_N), "--seed", str(seed), "--out-dir", str(out)]
    return SimpleNamespace(pkg=pkg, argv=argv, out=out, first=None)


def _figure_csv_ok(data):
    """Header plus FIGURES_ROWS rows of 8 numbers; r, t finite and the four
    proportion/probability columns finite in [0, 1] (the logarithmic
    comparators may be infinite where ln t = 0)."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "" or len(lines) != FIGURES_ROWS + 2 or len(lines[0].split(",")) != 8:
        return False
    for line in lines[1:-1]:
        try:
            vals = [float(v) for v in line.split(",")]
        except ValueError:
            return False
        if len(vals) != 8 or not all(math.isfinite(v) for v in vals[:6]):
            return False
        if not all(0.0 <= v <= 1.0 for v in vals[2:6]):
            return False
    return True


def figures_pass(st, ledger):
    t0 = perf_counter()
    try:
        rc = _quiet(st.pkg.cli.main, st.argv)
    except Exception as exc:
        rc = exc
    wall = perf_counter() - t0
    if rc != 0:
        ledger.fail(f"figures run ended with {rc!r}")
    else:
        outputs = tuple((st.out / name).read_bytes() for name in FIGURES_FILES)
        if st.first is None:
            st.first = outputs
        if not all(_figure_csv_ok(data) for data in outputs):
            ledger.fail("figure CSV malformed")
        elif outputs != st.first:
            ledger.fail("figure CSVs differ from the first pass with the same seed")
        else:
            ledger.ok()
    return Pass(wall, [wall], 4 * FIGURES_N)


# -- disk-oracle -------------------------------------------------------------

R_T = 0.5
# Criterion 3: Laplace transform of p_disk against f_disk.
LAPLACE_R = (2.0, 10.0, 50.0)  # r / r_T
LAPLACE_TAU = (1.0, 10.0, 100.0)  # tau / r_T^2
LAPLACE_EDGES = (0.0, 0.05, 0.15, 0.35, 0.75, 1.5, 3.0, 6.0, 10.0, math.log(1e8))
LAPLACE_TOL = 1e-4
# f_disk(5, 0.5, tau) on a log grid, jittered by the seed within each cell.
# The grid reaches 1e-9: below about 1e-6 k0 underflows to 0 in f_disk's
# denominator, which raises ZeroDivisionError (a known defect kept visible).
FDISK_POINTS = 300
FDISK_LOG10 = (-9.0, 6.0)
BESSEL_POINTS = 1000
BESSEL_MAX_M = 8


def disk_setup(seed, work_dir):
    pkg = import_package()
    nodes, weights = np.polynomial.legendre.leggauss(16)
    rng = np.random.default_rng(seed)
    lo, hi = FDISK_LOG10
    cells = (np.arange(FDISK_POINTS) + rng.random(FDISK_POINTS)) / FDISK_POINTS
    taus = [float(t) for t in 10.0 ** (lo + (hi - lo) * cells)]
    out = Path(work_dir) / "bessel.csv"
    argv = ["bessel", "--x-min", "1e-8", "--x-max", "50", "--points", str(BESSEL_POINTS),
            "--max-m", str(BESSEL_MAX_M), "--out", str(out)]
    return SimpleNamespace(pkg=pkg, nodes=nodes, weights=weights, taus=taus, argv=argv, out=out)


def _laplace_pass(st, latencies, f_disk_times, errors):
    """Integral_0^inf e^-s p_disk(r, r_T, tau s) ds by 16-node Gauss-Legendre
    on 9 panels plus the tail term, against f_disk, for each (r, tau) of
    criterion 3."""
    p_disk = st.pkg.disk_oracle.p_disk

    def timed(r, t):
        t0 = perf_counter()
        try:
            return p_disk(r, R_T, t)
        except Exception as exc:
            errors.append(f"p_disk({r:g}, {R_T:g}, {t:g}) raised {exc!r}")
            return math.nan
        finally:
            latencies.append(perf_counter() - t0)

    results = []
    for rr in LAPLACE_R:
        for tt in LAPLACE_TAU:
            r, tau = rr * R_T, tt * R_T * R_T
            total = 0.0
            for a, b in zip(LAPLACE_EDGES, LAPLACE_EDGES[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                s = mid + half * st.nodes
                vals = [timed(r, tau * float(sv)) for sv in s]
                total += half * float(np.sum(st.weights * np.exp(-s) * vals))
            total += math.exp(-LAPLACE_EDGES[-1]) * timed(r, tau * LAPLACE_EDGES[-1])
            t0 = perf_counter()
            try:
                exact = st.pkg.disk_oracle.f_disk(r, R_T, tau)
            except Exception as exc:
                exact = exc
            f_disk_times.append(perf_counter() - t0)
            results.append((r, tau, total, exact))
    return results


def disk_pass(st, ledger):
    latencies, f_disk_times, errors = [], [], []
    laplace = _laplace_pass(st, latencies, f_disk_times, errors)
    t0 = perf_counter()
    fvals = []
    f_disk = st.pkg.disk_oracle.f_disk
    for tau in st.taus:
        try:
            fvals.append(f_disk(5.0, R_T, tau))
        except Exception as exc:
            fvals.append(exc)
    try:
        rc = st.pkg.cli.main(st.argv)
    except Exception as exc:
        rc = exc
    wall = sum(latencies) + sum(f_disk_times) + (perf_counter() - t0)

    # gates, untimed
    ledger.ok(len(latencies) - len(errors))
    for what in errors:
        ledger.fail(what)
    for r, tau, approx, exact in laplace:
        if isinstance(exact, Exception):
            ledger.fail(f"f_disk({r:g}, {R_T:g}, {tau:g}) raised {exact!r}")
        elif not abs(approx - exact) <= LAPLACE_TOL:
            ledger.fail(f"Laplace consistency at r={r:g}, tau={tau:g}: |diff| = {abs(approx - exact):.3g}")
        else:
            ledger.ok()
    for tau, v in zip(st.taus, fvals):
        if isinstance(v, ZeroDivisionError):
            ledger.known_defect("f_disk ZeroDivisionError (k0 underflow)")
        elif isinstance(v, Exception):
            ledger.fail(f"f_disk(5, 0.5, {tau:g}) raised {v!r}")
        elif not 0.0 <= v <= 1.0:
            ledger.fail(f"f_disk(5, 0.5, {tau:g}) = {v!r} outside [0, 1]")
        else:
            ledger.ok()
    rows = _bessel_rows(st, rc, ledger)
    return Pass(wall, latencies, len(latencies) + len(st.taus) + rows)


def _bessel_rows(st, rc, ledger):
    """Gate the k0 table: every lower_m (m = 0..8) is at most k0 + k0_err."""
    if rc != 0:
        ledger.fail(f"bessel run ended with {rc!r}")
        return 0
    lines = st.out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    lower_cols = [header.index(f"lower_{m}") for m in range(BESSEL_MAX_M + 1)]
    k0_col, err_col = header.index("k0"), header.index("k0_err")
    if len(lines) - 1 != BESSEL_POINTS:
        ledger.fail(f"bessel table has {len(lines) - 1} rows, expected {BESSEL_POINTS}")
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        upper = vals[k0_col] + vals[err_col]
        if all(vals[c] <= upper for c in lower_cols):
            ledger.ok()
        else:
            ledger.fail(f"k0 table row x={vals[0]:g}: a lower bracket exceeds k0(x).upper")
    return len(lines) - 1


WORKLOADS = {
    "theorem1-sweep": (sweep_setup, sweep_pass),
    "figures": (figures_setup, figures_pass),
    "disk-oracle": (disk_setup, disk_pass),
}
