"""Tests for the disk-trap closed forms and the hitting-probability quadrature."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapprob import (
    ConvergenceError,
    DomainError,
    f_disk,
    hunt_approx,
    p_disk,
)
from trapprob import disk_oracle
from trapprob.disk_oracle import _WG, _WGK, _XGK, _adaptive_gk, _p_disk_curve
from conftest import X86_V3, X86_V4, pinned

R_T = 0.5

# K0(1)/K0(0.5), mpmath at 40 digits
F_DISK_REF = 0.4554475901082080


# ---------------------------------------------------------------------------
# Gauss-Kronrod tables
# ---------------------------------------------------------------------------

def test_gk_weights_sum_to_two():
    assert_allclose(_WGK.sum(), 2.0, rtol=1e-14)
    assert_allclose(_WG.sum(), 2.0, rtol=1e-14)


@pytest.mark.parametrize("deg", range(0, 23))
def test_gk_rule_exactness(deg):
    # Gauss 7 integrates monomials exactly through degree 13, the Kronrod
    # extension through degree 22 (odd degrees vanish by symmetry)
    exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
    k15 = float(_WGK @ _XGK**deg)
    assert_allclose(k15, exact, rtol=0, atol=2e-14)
    if deg <= 13:
        g7 = float(_WG @ _XGK**deg)
        assert_allclose(g7, exact, rtol=0, atol=2e-14)


def _gk(f, edges, tol, max_evals):
    """_adaptive_gk on the one integral of f over edges: (value, error,
    evaluations)."""
    [value], [error], evals = _adaptive_gk(lambda x, owner: f(x), [edges], tol, max_evals)
    return value, error, evals


def test_adaptive_gk_smooth():
    val, err, evals = _gk(np.exp, np.linspace(0.0, 1.0, 2), 1e-12, 10**5)
    assert_allclose(val, math.e - 1.0, rtol=1e-14)
    assert err < 1e-12
    assert evals == 15


def test_adaptive_gk_splits_hard_integrand():
    # |x|^(1/2) has a derivative singularity at 0: needs refinement
    f = lambda x: np.sqrt(np.abs(x))
    val, err, evals = _gk(f, np.linspace(-1.0, 1.0, 3), 1e-10, 10**6)
    assert_allclose(val, 4.0 / 3.0, rtol=1e-9)
    assert evals > 30


def test_adaptive_gk_budget_error():
    f = lambda x: np.sin(1.0 / (x + 1e-3))
    with pytest.raises(ConvergenceError, match=r"exceeded 200 evaluations on \[0, 1\]"):
        _gk(f, np.linspace(0.0, 1.0, 17), 1e-14, 200)


def _sqrt_abs_sin(x):
    return np.sqrt(np.abs(np.sin(50.0 * x)))


# (integrand, panel edges, exact integral, evaluations) at tol 1e-9: the
# exact integrals are mpmath's (sqrt|sin 50x| between its zeros k pi/50)
# and sin(600)/200.  The counts pin the local split rule, under which each
# round keeps the panels within their share of tol and halves the rest.
ADAPTIVE_GK_EXACT = [
    (_sqrt_abs_sin, np.linspace(0.0, 10.0, 2), 7.624661783239027, 150435),
    (lambda x: np.cos(200.0 * x), np.linspace(0.0, 3.0, 5), 2.2091224165936597e-4, 3780),
]


@pytest.mark.parametrize("f, edges, exact, count", ADAPTIVE_GK_EXACT, ids=["sqrt_abs_sin_50x", "cos_200x"])
def test_adaptive_gk_meets_tol_on_exact_integrals(f, edges, exact, count):
    val, err, evals = _gk(f, edges, 1e-9, 10**6)
    assert abs(val - exact) <= 1e-9
    assert err <= 1e-9
    assert evals == count


def test_adaptive_gk_nan_integrand_ends_in_convergence_error():
    # a NaN error is never within its share: every round halves every
    # panel (4, 8, ..., 2048 of them) until the budget runs out
    seen = []

    def f(x):
        seen.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(ConvergenceError):
        _gk(f, np.linspace(0.0, 1.0, 5), 1e-9, 10**5)
    assert seen == [15 * 4 * 2**k for k in range(10)]


# ---------------------------------------------------------------------------
# f_disk
# ---------------------------------------------------------------------------

def test_f_disk_reference():
    assert_allclose(f_disk(1.0, R_T, 2.0), F_DISK_REF, rtol=1e-12)


def test_f_disk_inside_is_one():
    assert f_disk(0.3, R_T, 5.0) == 1.0
    assert f_disk(R_T, R_T, 5.0) == 1.0


def test_f_disk_monotone():
    taus = np.geomspace(0.1, 1e4, 25)
    vals = [f_disk(5.0, R_T, float(tau)) for tau in taus]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # increasing in tau
    radii = np.geomspace(0.6, 200.0, 25)
    vals = [f_disk(float(r), R_T, 10.0) for r in radii]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing in r
    assert all(0.0 < v <= 1.0 for v in vals)


def test_f_disk_scale_invariance():
    # depends only on r/r_T and tau/r_T^2
    for s in (0.1, 3.0, 40.0):
        assert_allclose(
            f_disk(s * 1.0, s * R_T, s * s * 2.0), f_disk(1.0, R_T, 2.0), rtol=1e-13
        )


def test_f_disk_tiny_tau_is_finite():
    # below tau ~ 1e-6 both K0 values underflow; the ratio must not divide by 0
    for tau in np.geomspace(1e-12, 1e-6, 13):
        v = f_disk(5.0, R_T, float(tau))
        assert math.isfinite(v) and 0.0 <= v <= 1.0
    assert f_disk(5.0, R_T, 1e-9) == 0.0  # true value 2.6e-87401


def test_f_disk_scaled_ratio_near_trap():
    # r -> r_T at tiny tau: K0 underflows but the ratio is O(1).
    # References: K0 ratio with mpmath at 40 digits of the float inputs.
    assert_allclose(f_disk(0.50001, R_T, 1e-9), 0.63940092525739894933, rtol=1e-12)
    assert_allclose(f_disk(1.0, R_T, 1e-3), 1.3789242229523487635e-10, rtol=1e-12)
    assert_allclose(f_disk(5.0, R_T, 1e-4), 1.3102971456465473757e-277, rtol=1e-12)


def test_f_disk_domain():
    with pytest.raises(DomainError):
        f_disk(-1.0, R_T, 1.0)
    with pytest.raises(DomainError):
        f_disk(1.0, R_T, 0.0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((5.0, R_T, math.inf), "^tau must be finite"),
        ((math.nan, R_T, 1.0), "^r must be finite"),
        ((5.0, 5e-324, 1e10), "r_T=5e-324"),  # sqrt(2/tau) r_T underflows to 0
    ],
)
def test_f_disk_degenerate_inputs_name_the_argument(args, message):
    with pytest.raises(DomainError, match=message):
        f_disk(*args)


def test_f_disk_extreme_but_finite_inputs():
    # K0 of the denominator below 1e-8 (order-1 bracket) and both arguments
    # overflowing: finite answers in [0, 1]
    assert_allclose(f_disk(5.0, 1e-300, 1.0), 5.7016320702625237e-07, rtol=1e-13)  # mpmath, 40 digits
    assert f_disk(1e308, 1e307, 5e-324) == 0.0
    assert f_disk(5.0, R_T, 5e-324) == 0.0


def test_f_disk_against_mpmath_at_criterion_points():
    # every criterion-3 (r, tau) and every criterion-7 / theorem1-sweep
    # combo; at r = 25, tau = 3 (e/2) d^2 the numerator's argument is 8.75,
    # where the former asymptotic K0 branch was off by 2.4e-9 relative
    mpmath = pytest.importorskip("mpmath")
    d, r_t = 2.0, 0.5  # the segment [-1, 1]
    points = [(rr * r_t, r_t, tt * r_t * r_t) for rr in (2.0, 10.0, 50.0) for tt in (1.0, 10.0, 100.0)]
    points += [(r, r_t, mult * 0.5 * math.e * d * d) for mult in (1.1, 3.0, 10.0, 30.0) for r in (1.0, 5.0, 25.0, 125.0)]
    with mpmath.workdps(40):
        for r, rt, tau in points:
            kappa = mpmath.sqrt(2 / mpmath.mpf(tau))
            ref = mpmath.besselk(0, kappa * r) / mpmath.besselk(0, kappa * rt)
            assert abs(f_disk(r, rt, tau) - ref) <= 1e-13 * ref, (r, tau)


# ---------------------------------------------------------------------------
# p_disk
# ---------------------------------------------------------------------------

def test_p_disk_trivial_values():
    assert p_disk(R_T, R_T, 123.0) == 1.0
    assert p_disk(5.0, R_T, 0.0) == 0.0
    # gap^2/(4t) huge: probability indistinguishable from 0
    assert p_disk(125.0, R_T, 1e-3) == 0.0


def test_p_disk_regression_pin():
    # value certified during development by two independent routes (Laplace
    # consistency against f_disk at 1e-4 and direct Monte Carlo at 3 sigma);
    # pinned at the quadrature tolerance
    assert_allclose(p_disk(5.0, R_T, 1e5), 0.6499562328509851, rtol=0, atol=2e-6)
    assert_allclose(p_disk(125.0, R_T, 100.0), 8.558624697840855e-09, rtol=0, atol=2e-6)
    # release circle through the segment's endpoints (r = 1), at the short
    # times where the segment's capture curve sits ~0.02 below the disk:
    # references from Talbot inversion of K0(r sqrt(2s)) / (s K0(r_T sqrt(2s)))
    # with mpmath at 30 digits, frozen here
    assert_allclose(p_disk(1.0, R_T, 0.5623413251903491), 0.3707329386198175, rtol=0, atol=2e-6)
    assert_allclose(p_disk(1.0, R_T, 1.0), 0.4578059637382552, rtol=0, atol=2e-6)


# Gauss-Legendre panels in s = t/tau of the Laplace checks (acceptance
# criterion 3 and the spot check below)
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
S_EDGES = [0.0, 0.05, 0.15, 0.35, 0.75, 1.5, 3.0, 6.0, 10.0, math.log(1e8)]
_S_NODES = np.append(
    np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * GL_NODES for a, b in zip(S_EDGES, S_EDGES[1:])]), S_EDGES[-1]
)
# the (r, t) of every p_disk call of criterion 3 (1305) and of figure_series
# at its default radii and times (100)
CRITERION_3_CURVES = [(rr * R_T, tt * R_T * R_T * _S_NODES) for rr in (2.0, 10.0, 50.0) for tt in (1.0, 10.0, 100.0)]
CRITERION_3_GRID = [(r, t) for r, times in CRITERION_3_CURVES for t in times.tolist()]
FIGURE_TIMES = np.logspace(-1.0, 5.0, 25)
FIGURE_GRID = [(r, t) for r in (1.0, 5.0, 25.0, 125.0) for t in FIGURE_TIMES.tolist()]


# p_disk(r, 0.5, tau * s) at the nine (r, tau) pairs of acceptance
# criterion 3, for s = 0.05, 0.75, 3 and ln(1e8).  First recorded with the
# two sub-integrals run one after the other and two J0/Y0 calls per
# integrand evaluation, each on the full 48-term series; retaken when the
# two-term tail series gave way to the exact arctangent tail, which moved
# every nonzero value down by 1.56e-9 ln(r/r_T) (1.07e-9, 3.57e-9 and
# 6.06e-9 at r = 1, 5 and 25) and nothing else; retaken when J0/Y0 on
# x <= 15 came to be read from a double table built from that series,
# which moved 11 of the 36 values, each by at most 3.3e-16; retaken when
# the log part started from panels graded toward ln y0 instead of 16 equal
# ones, which moved 23 values, each to within 3e-15 of Talbot inversion
# (the largest move, 3.3e-13 at (1, 0.25), s = 0.75, was the old error);
# retaken when the two parts became one integral over s, which moved 12
# values by at most 2.2e-16, each still within 3e-15 of Talbot inversion;
# retaken when the log part came to start at s = -20 above an exact tail
# (from s = ln(y/y0) <= -60 before), which moved 20 values by at most
# 4.4e-16.  These are the X86_V4 pins; X86_V3 moves six values, by at most
# 2.2e-16.
_P_DISK_PINS_X86_V4 = {
    (1.0, 0.25): (5.491231202636726e-06, 0.17930212815825397, 0.41598786284013733, 0.6245752052122048),
    (1.0, 2.5): (0.11309853780515122, 0.5370920920780473, 0.6617318902235694, 0.7573562651969514),
    (1.0, 25.0): (0.4878280131044702, 0.7169014932987834, 0.7751782067354251, 0.8243025226815822),
    (5.0, 0.25): (0.0, 2.220446049250313e-15, 6.633386240295636e-08, 0.01270622750271544),
    (5.0, 2.5): (2.220446049250313e-15, 0.0003414937113024319, 0.03658974763092637, 0.21310318384821858),
    (5.0, 25.0): (1.887082737284107e-05, 0.11671807775188248, 0.26360673985412275, 0.41744724622310414),
    (25.0, 0.25): (0.0, 0.0, 0.0, 2.3314683517128287e-15),
    (25.0, 2.5): (0.0, 0.0, 2.55351295663786e-15, 5.306558981510445e-05),
    (25.0, 25.0): (0.0, 2.433760748488112e-09, 0.0008594844228477783, 0.060274551842156465),
}
P_DISK_PINS = {
    X86_V4: _P_DISK_PINS_X86_V4,
    X86_V3: {
        **_P_DISK_PINS_X86_V4,
        (1.0, 0.25): (5.491231202636726e-06, 0.17930212815825386, 0.41598786284013733, 0.6245752052122048),
        (1.0, 2.5): (0.11309853780515122, 0.5370920920780473, 0.6617318902235694, 0.7573562651969513),
        (1.0, 25.0): (0.4878280131044702, 0.7169014932987835, 0.7751782067354251, 0.8243025226815822),
        (5.0, 0.25): (0.0, 2.3314683517128287e-15, 6.633386262500096e-08, 0.01270622750271544),
        (5.0, 2.5): (2.220446049250313e-15, 0.0003414937113025429, 0.03658974763092637, 0.21310318384821858),
    },
}


def test_p_disk_bit_identical_pins():
    got = {(r, tau): tuple(p_disk(r, R_T, tau * s) for s in (0.05, 0.75, 3.0, math.log(1e8))) for r, tau in _P_DISK_PINS_X86_V4}
    assert got == pinned(P_DISK_PINS, got)


# SHA-256 of the float.hex of p_disk on CRITERION_3_GRID then FIGURE_GRID,
# one value a line, by numpy dispatch; recorded before p_disk's quadrature
# round was cut to slices and index arrays; retaken when the log part came
# to start at s = -20 above an exact tail, which moved 903 of the 1405
# values, each by at most 5.6e-16
P_DISK_GRID_SHA256 = {
    X86_V4: "32b1c16c96044b6bef8d561a25b17ddcfdd49150b7c27447855554a524a4eadb",
    X86_V3: "b66361967d6a143374977d5d1e40914dbea186f405ac709ea1a5423dff259758",
}


def test_p_disk_whole_grid_digest():
    text = "\n".join(p_disk(r, R_T, t).hex() for r, t in CRITERION_3_GRID + FIGURE_GRID)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == pinned(P_DISK_GRID_SHA256, digest)


# p_disk(r, 0.5, t) from Talbot inversion of K0(r sqrt(2s)) / (s K0(r_T sqrt(2s)))
# with mpmath at 30 digits (unchanged at 45), frozen here.  The two-term
# tail series this replaced dropped a pi^4/(80 lam^5) term and read
# 1.56e-9 ln(r/r_T) high at every t: 1.07e-9 at r = 1 (relative 2e-4 at
# t = 0.0125) and 8.56e-9 at r = 125.  The last two points are where the
# log part's former 16 equal starting panels erred most on the criterion-3
# grid: 1.13e-11 and 3.6e-13 off.  The two after them, at r/r_T = 3000 and
# 1e4 and t = r^2, take the radius ratio far past the figures' 250, where
# the exact tail, -ln(r/r_T) atan(pi / (2 lam)), is largest.  (Wherever a
# call integrates, (r/r_T) y0 < 19, so J0((r/r_T) y) does not oscillate on
# the log part's bottom panel [-20, -8] at any ratio.)
P_DISK_TALBOT = {
    (1.0, 0.0125): 5.4912312003927718356e-6,
    (1.0, 1.0): 0.45780596373825520464,
    (1.0, 1000.0): 0.83953421513543229659,
    (5.0, 10.0): 0.05760439864318491972,
    (5.0, 1e5): 0.64995622928182702201,
    (25.0, 100.0): 0.0027310912689425035517,
    (125.0, 1e4): 0.034072036902453138668,
    (25.0, 38.539218317376886): 1.3489341144024792716e-5,
    (1.0, 0.21479955615259266): 0.20309508828223184228,
    (1500.0, 2250000.0): 0.037282495546274172975,
    (5000.0, 25000000.0): 0.032142908431020150873,
}


@pytest.mark.parametrize("r, t", list(P_DISK_TALBOT))
def test_p_disk_against_talbot_inversion(r, t):
    assert_allclose(p_disk(r, R_T, t), P_DISK_TALBOT[r, t], rtol=0, atol=1e-13)


def test_p_disk_tail_starts_low_enough(monkeypatch):
    # the exact tail covers s < -20 (u < ln y0 - 20); integrating down to
    # s = -60 instead moves no value of the two grids by more than 4e-15
    # (1.3e-15 when recorded), where a tail from s = -14 moves them by 6.1e-14
    curves = CRITERION_3_CURVES + [(r, FIGURE_TIMES) for r in (1.0, 5.0, 25.0, 125.0)]
    at_20 = [p_disk(r, R_T, times) for r, times in curves]
    monkeypatch.setattr(disk_oracle, "LOG_PANEL_EDGES", np.concatenate([[-60.0], disk_oracle.LOG_PANEL_EDGES]))
    for (r, times), base in zip(curves, at_20):
        assert_allclose(p_disk(r, R_T, times), base, rtol=0, atol=4e-15, err_msg=f"r = {r}")


@pytest.fixture
def quadrature_rounds(monkeypatch):
    """(kernel_sizes, rounds): filled with the size of each J0/Y0 kernel
    call and the node count of each quadrature round of every p_disk call."""
    kernel_sizes, rounds = [], []
    kernel, driver = disk_oracle.bessel_j0_y0, disk_oracle._adaptive_gk

    def counting_kernel(x):
        kernel_sizes.append(np.size(x))
        return kernel(x)

    def counting_driver(f, *args):
        def counted(nodes, owner):
            rounds.append(np.size(nodes))
            return f(nodes, owner)

        return driver(counted, *args)

    monkeypatch.setattr(disk_oracle, "bessel_j0_y0", counting_kernel)
    monkeypatch.setattr(disk_oracle, "_adaptive_gk", counting_driver)
    return kernel_sizes, rounds


def test_p_disk_one_kernel_call_per_round(monkeypatch, quadrature_rounds):
    # at the default tolerance every call converges in one round, so a
    # tighter one makes the rounds to count
    monkeypatch.setattr(disk_oracle, "QUAD_TOL", 1e-12)
    kernel_sizes, rounds = quadrature_rounds
    for r, t in ((1.0, 0.3), (5.0, 0.1), (25.0, 3.0)):  # 3, 3 and 4 rounds
        kernel_sizes.clear()
        rounds.clear()
        p_disk(r, R_T, t)
        assert len(rounds) >= 2
        # each round: one call on the y and a*y of every pending node
        assert kernel_sizes == [2 * n for n in rounds]


def test_p_disk_calls_the_module_bindings(quadrature_rounds):
    # the benchmark's tracer counts J0/Y0 elements and quadrature
    # evaluations by rebinding disk_oracle.bessel_j0_y0 and
    # disk_oracle._adaptive_gk; p_disk must look both up there at call time
    kernel_sizes, rounds = quadrature_rounds
    p_disk(5.0, R_T, 2.0)
    assert len(rounds) == 1
    assert kernel_sizes == [2 * rounds[0]]


def test_p_disk_figure_curve_is_one_kernel_call(quadrature_rounds):
    # each radius of the default figure grid: one round, one kernel call
    # under GK_CALL_NODES, and the nodes of its 83 integrating calls; the
    # curve too calls the module bindings the benchmark's tracer rebinds.
    # (22455 nodes while the log part started at s = ln(y/y0) <= -60.)
    kernel_sizes, rounds = quadrature_rounds
    for r in (1.0, 5.0, 25.0, 125.0):
        p_disk(r, R_T, FIGURE_TIMES)
    assert len(rounds) == 4 and max(rounds) <= disk_oracle.GK_CALL_NODES
    assert sum(rounds) == 18720
    assert kernel_sizes == [2 * n for n in rounds]


# curves with each shortcut: t = 0, r = r_T and the free-diffusion zeros
SHORTCUT_CURVES = [
    (R_T, np.array([0.0, 0.1, 1e3])),
    (5.0, np.array([0.0, 1e-3, 2.0, 0.0, 1e5])),
    (125.0, np.array([1e-3, 1.0, 1e4, 0.0])),
]


def test_p_disk_curve_equals_its_scalar_calls():
    curves = CRITERION_3_CURVES + [(r, FIGURE_TIMES) for r in (1.0, 5.0, 25.0, 125.0)] + SHORTCUT_CURVES
    for r, times in curves:
        got = p_disk(r, R_T, times)
        assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == times.shape
        assert got.tolist() == [p_disk(r, R_T, t) for t in times.tolist()], r


def test_p_disk_curve_forms(quadrature_rounds):
    kernel_sizes, _ = quadrature_rounds
    assert p_disk(5.0, R_T, []).shape == (0,)
    assert p_disk(R_T, R_T, (1.0, 2.0)).tolist() == [1.0, 1.0]
    assert kernel_sizes == []  # nothing to integrate, no kernel call
    assert p_disk(5.0, R_T, (2.0, 3.0)).tolist() == [p_disk(5.0, R_T, 2.0), p_disk(5.0, R_T, 3.0)]
    assert isinstance(p_disk(5.0, R_T, 2.0), float)
    assert isinstance(p_disk(5.0, R_T, np.float64(2.0)), float)


def test_p_disk_curve_one_kernel_call_per_round(monkeypatch, quadrature_rounds):
    # test_p_disk_one_kernel_call_per_round's three cases, each in a curve
    # with the other cases' times: the curve's first round is one kernel
    # call on the first-round nodes of every time, in calls of at most
    # GK_CALL_NODES nodes, and then each time still pending runs exactly
    # its scalar call's later rounds, in the curve's order.  (At r = 25 only
    # t = 3 integrates, and one integral runs as its scalar call.)
    monkeypatch.setattr(disk_oracle, "QUAD_TOL", 1e-12)
    kernel_sizes, rounds = quadrature_rounds
    times = [0.3, 0.1, 3.0]
    for r in (1.0, 5.0):
        alone = []
        for t in times:
            rounds.clear()
            p_disk(r, R_T, t)
            alone.append(list(rounds))
        first, later = sum(sizes[0] for sizes in alone), [n for sizes in alone for n in sizes[1:]]
        assert later
        for cap in (2**13, 150):
            monkeypatch.setattr(disk_oracle, "GK_CALL_NODES", cap)
            kernel_sizes.clear()
            rounds.clear()
            p_disk(r, R_T, times)
            head = rounds[: len(rounds) - len(later)]
            assert rounds[len(head):] == later
            assert sum(head) == first and max(head) <= cap
            assert len(head) == -(-first // 15 // (cap // 15))  # one call per GK_CALL_NODES // 15 panels
            assert kernel_sizes == [2 * n for n in rounds]
        assert p_disk(r, R_T, times).tolist() == [p_disk(r, R_T, t) for t in times]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, "1", 1j])
def test_p_disk_curve_refuses_a_bad_time_before_any_kernel_call(quadrature_rounds, bad):
    kernel_sizes, rounds = quadrature_rounds
    with pytest.raises(DomainError) as scalar:
        p_disk(5.0, R_T, bad)
    for times in ([bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad]):
        with pytest.raises(DomainError) as curve:
            p_disk(5.0, R_T, times)
        assert str(curve.value) == str(scalar.value)
    assert kernel_sizes == [] and rounds == []


@pytest.mark.parametrize("r, r_T", [(0.1, R_T), (math.nan, R_T), ("5", R_T), (5.0, 0.0), (5.0, 1e-300)])
def test_p_disk_curve_checks_r_and_r_T_without_any_time(r, r_T):
    # an empty curve still refuses a bad radius, as the scalar call does
    with pytest.raises(DomainError) as scalar:
        p_disk(r, r_T, 1.0)
    for times in ([], (), np.array([])):
        with pytest.raises(DomainError) as curve:
            p_disk(r, r_T, times)
        assert str(curve.value) == str(scalar.value)


def _many_integrands(fs):
    """One integrand over many integrals: fs[k] at the nodes of integral k."""
    def f(x, owner):
        out = np.empty_like(x)
        for k, fk in enumerate(fs):
            mine = owner == k
            out[mine] = fk(x[mine])
        return out

    return f


# ADAPTIVE_GK_EXACT's integrals and e^x on [0, 1]
MANY = [(f, edges) for f, edges, _, _ in ADAPTIVE_GK_EXACT] + [(np.exp, np.linspace(0.0, 1.0, 2))]


def test_adaptive_gk_many_integrals_match_each_alone():
    alone = [_gk(f, edges, 1e-9, 10**6) for f, edges in MANY]
    values, errors, evals = _adaptive_gk(_many_integrands([f for f, _ in MANY]), [e for _, e in MANY], 1e-9, 10**6)
    assert values == [v for v, _, _ in alone]
    assert errors == [e for _, e, _ in alone]
    assert isinstance(evals, int) and evals == sum(n for _, _, n in alone) == 150435 + 3780 + 15


def test_adaptive_gk_budget_applies_per_integral():
    # sqrt|sin 50x| takes 150435 evaluations alone: that budget suffices
    # for all three, though their sum exceeds it, and one less fails on its
    # interval
    f, edges = _many_integrands([f for f, _ in MANY]), [e for _, e in MANY]
    assert _adaptive_gk(f, edges, 1e-9, 150435)[2] == 150435 + 3780 + 15
    with pytest.raises(ConvergenceError, match=r"exceeded 150434 evaluations on \[0, 10\]"):
        _adaptive_gk(f, edges, 1e-9, 150434)


def test_adaptive_gk_many_caps_the_nodes_per_call(monkeypatch):
    # many integrals run their first round together, in calls of at most
    # GK_CALL_NODES nodes over consecutive panels (an owner array); each
    # pending integral then runs its later rounds alone (an int owner).
    # The values are those of each integral alone.
    monkeypatch.setattr(disk_oracle, "GK_CALL_NODES", 150)
    edges = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5), np.linspace(0.0, 3.0, 13), np.linspace(1.0, 2.0, 2)]
    calls = []

    def f(x, owner):
        calls.append((owner if isinstance(owner, int) else np.unique(owner).tolist(), x.size))
        return np.cos(12.0 * x)

    values, _, _ = _adaptive_gk(f, edges, 1e-12, 10**6)
    # 4, 4, 12 and 1 panels: ten panels a call, then integrals 1 and 3 halve
    assert calls == [([0, 1, 2], 150), ([2], 150), ([3], 15), (1, 120), (3, 30), (3, 60)]
    assert values == [_gk(lambda x: np.cos(12.0 * x), e, 1e-12, 10**6)[0] for e in edges]


def test_adaptive_gk_counts_every_node_it_passes():
    # (integrals, errors, evaluations), the evaluations being the nodes f saw
    seen = []

    def f(x):
        seen.append(x.size)
        return np.sqrt(np.abs(x))

    result = _adaptive_gk(lambda x, owner: f(x), [np.linspace(-1.0, 1.0, 3)], 1e-10, 10**6)
    assert len(result) == 3
    [val], [err], evals = result
    assert isinstance(val, float) and isinstance(err, float) and isinstance(evals, int)
    assert len(seen) > 1
    assert evals == sum(seen)
    assert min(seen) > 0  # f never sees an empty round


def test_adaptive_gk_returns_when_every_panel_is_within_its_share():
    # five unit panels with the same 15 values carry the same error e; at
    # the tol just below their sum 5e, each e is still within its share
    # tol/5, so the round keeps every panel and returns rather than pass f
    # an empty round
    pattern = np.cos(16.0 * _XGK)
    seen = []

    def f(x):
        assert x.size > 0, "an empty round"  # fails at once where the driver would loop on no panels
        seen.append(x.size)
        return np.tile(pattern, x.size // 15)

    edges = np.linspace(0.0, 5.0, 6)
    val, total, _ = _gk(f, edges, math.inf, 10**6)
    tol = float(np.nextafter(total, 0.0))
    assert _gk(f, edges, tol, 10**6) == (val, total, 75)
    assert total > tol
    assert seen == [75, 75]


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_adaptive_gk_passes_ascending_nodes(tol):
    # an integral's nodes reach f in ascending order, later rounds
    # included
    orders = []

    def f(x):
        orders.append(x.size > 0 and bool(np.all(np.diff(x) > 0.0)))
        return _sqrt_abs_sin(x)

    _gk(f, np.linspace(0.0, 3.0, 4), tol, 10**6)
    assert len(orders) > 2
    assert all(orders)


def test_p_disk_converges_in_one_round(quadrature_rounds):
    # the log part's starting panels are graded toward ln y0, where the
    # integrand's features sit; with 16 equal ones 47% of criterion 3's
    # quadratures needed 2-4 rounds.  Each grid with the number of its
    # calls that integrate; the others take the free-diffusion shortcut and
    # run no round.
    grids = {"criterion 3": (CRITERION_3_GRID, 1048), "figure_series": (FIGURE_GRID, 83)}
    _, rounds = quadrature_rounds
    for name, (grid, n_integrated) in grids.items():
        per_call = []
        for r, t in grid:
            rounds.clear()
            p_disk(r, R_T, t)
            per_call.append(len(rounds))
        assert set(per_call) <= {0, 1}, name
        assert per_call.count(1) == n_integrated, name


def test_p_disk_bounds_and_monotonicity():
    times = np.geomspace(0.01, 1e5, 12)
    radii = (0.5, 0.75, 1.5, 5.0, 30.0)
    table = {r: [p_disk(r, R_T, float(t)) for t in times] for r in radii}
    for r in radii:
        vals = table[r]
        assert all(0.0 <= v <= 1.0 for v in vals)
        # nondecreasing in t (within quadrature tolerance)
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 2e-6
    # decreasing in r at fixed t
    for j in range(len(times)):
        col = [table[r][j] for r in radii]
        for a, b in zip(col, col[1:]):
            assert b <= a + 2e-6


def test_p_disk_raw_stays_near_unit_interval():
    # p_disk before clamping
    for r in (0.5, 0.7, 1.0, 5.0, 125.0):
        for t in (1e-3, 0.3, 1.0, 30.0, 1e3, 1e5):
            raw = _p_disk_curve(r, R_T, [t])[0]
            assert -2e-6 <= raw <= 1.0 + 2e-6


def test_p_disk_approaches_one():
    # 1 - p ~ 2 ln(r/r_T)/ln t -> 0 logarithmically
    p8 = p_disk(5.0, R_T, 1e8)
    p10 = p_disk(5.0, R_T, 1e10)
    assert p10 > p8 > 0.5
    for t, p in ((1e8, p8), (1e10, p10)):
        assert_allclose(
            math.log(t) * (1.0 - p), 2.0 * math.log(10.0), rtol=0.25
        )


def test_p_disk_laplace_consistency_spot_check():
    # (1/tau) int e^(-t/tau) p dt == f_disk; Gauss-Legendre in s = t/tau.
    # The full nine-combination certification runs in the acceptance suite.
    for r, tau in ((1.0, 2.5), (5.0, 25.0)):
        total = 0.0
        for a, b in zip(S_EDGES, S_EDGES[1:]):
            s = 0.5 * (b - a) * GL_NODES + 0.5 * (a + b)
            w = 0.5 * (b - a) * GL_WEIGHTS
            total += float(
                w @ [math.exp(-si) * p_disk(r, R_T, tau * si) for si in s]
            )
        total += math.exp(-S_EDGES[-1]) * p_disk(r, R_T, tau * S_EDGES[-1])
        assert abs(total - f_disk(r, R_T, tau)) < 1e-4


@pytest.mark.parametrize(
    "args, message",
    [
        ((5.0, R_T, math.nan), "^t must be finite"),
        ((5.0, R_T, math.inf), "^t must be finite"),
        ((math.inf, R_T, 1.0), "^r must be finite"),
        ((5.0, 1e-300, 1.0), "r_T=1e-300"),  # 2 r_T^2 underflows
        ((1e300, 1e-10, 1.0), "r_T=1e-10"),  # r / r_T overflows
    ],
)
def test_p_disk_degenerate_inputs_name_the_argument(args, message):
    with pytest.raises(DomainError, match=message):
        p_disk(*args)


def test_p_disk_free_diffusion_shortcut_survives_overflow():
    # gap^2 and 4t both overflow: still the free-diffusion 0, not a
    # quadrature over [1, 6e146] that exhausts its budget
    big = 1.7976931348623157e308
    assert p_disk(big, 1e300, big) == 0.0
    assert p_disk(big, 1.0, big) == 0.0


def test_p_disk_domain_errors():
    with pytest.raises(DomainError):
        p_disk(0.3, R_T, 1.0)  # release inside the disk
    with pytest.raises(DomainError):
        p_disk(5.0, R_T, -1.0)
    with pytest.raises(DomainError):
        p_disk(5.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# hunt_approx
# ---------------------------------------------------------------------------

def test_hunt_reference_values():
    assert hunt_approx(5.0, R_T, 1e5, "raw") == pytest.approx(0.6, abs=1e-15)
    assert_allclose(
        hunt_approx(5.0, R_T, 1e5, "tau0"), 0.8148740150441308, rtol=1e-13
    )


def test_hunt_at_disk_edge():
    assert hunt_approx(R_T, R_T, 7.0, "raw") == 1.0
    assert hunt_approx(R_T, R_T, 7.0, "tau0") == 1.0


def test_hunt_degenerate_denominator():
    assert hunt_approx(5.0, R_T, 1.0, "raw") == -math.inf


def test_hunt_not_clamped():
    # short times give values far below 0; that is intentional
    assert hunt_approx(125.0, R_T, 2.0, "raw") < -10.0


def test_hunt_converges_to_p_disk():
    # both variants share the Hunt limit; the gap shrinks with t
    gaps_raw = []
    for t in (1e5, 1e8, 1e10):
        p = p_disk(5.0, R_T, t)
        gaps_raw.append(abs(p - hunt_approx(5.0, R_T, t, "raw")))
    assert gaps_raw[0] > gaps_raw[1] > gaps_raw[2]
    assert gaps_raw[2] < 0.02


def test_hunt_domain_errors():
    with pytest.raises(DomainError):
        hunt_approx(5.0, R_T, 1e5, "smoothed")
    with pytest.raises(DomainError):
        hunt_approx(0.3, R_T, 1e5, "raw")
    with pytest.raises(DomainError):
        hunt_approx(5.0, R_T, 0.0, "raw")


@pytest.mark.parametrize(
    "r, r_T, t, want",
    [
        # mpmath at 40 digits of the float inputs
        (5.0, 1e-200, 1.0, 0.49800115745228996),  # tau0 underflows to 0
        (5.0, 1e-160, 1e10, 0.51273762176784385),  # tau0 subnormal, t / tau0 overflows
        (5.0, 1e-300, 1e5, 0.50281227571478274),
    ],
)
def test_hunt_tau0_below_the_double_range(r, r_T, t, want):
    assert_allclose(hunt_approx(r, r_T, t, "tau0"), want, rtol=1e-14)


def test_hunt_log_ratio_overflow():
    # r / r_T overflows, but ln(r/r_T) = ln 1e300 - ln 1e-200 is finite
    assert_allclose(hunt_approx(1e300, 1e-200, 10.0, "raw"), 1.0 - 1000.0, rtol=1e-14)
