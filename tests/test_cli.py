"""End-to-end tests of the command-line interface and the reporting layer.

Every invocation goes through ``main(argv)`` so the exit-code contract
(0 ok, 1 domain, 2 hypothesis, 3 convergence, 64 usage) is exercised the
same way a shell would see it.
"""

import hashlib
import json
import math
import platform
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapprob.segment_sim
import trapprob.verify
from trapprob.cli import main
from trapprob.segment_sim import SAMPLER_STREAM
from trapprob.reporting import csv_lines, format_cell, svg_lineplot, write_csv

# ---------------------------------------------------------------------------
# reporting primitives


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(3) == "3"
    assert format_cell(0.1) == "0.1"
    # 12 significant digits, no platform-dependent repr noise
    assert format_cell(math.pi) == "3.14159265359"
    assert format_cell(1.0e-7) == "1e-07"


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"a": [1, 0.5], "b": [None, True]})
    assert path.read_bytes() == b"a,b\n1,\n0.5,1\n"


def _row_writer_text(header, rows):
    """The CSV text of the row writer that csv_lines replaced."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(format_cell(v) for v in row) + "\n"
    return text


# None, bools, ints past 2**64 and floats with nan, +-inf, -0.0 and subnormals
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]),
    st.floats(),
)


@st.composite
def _tables(draw):
    names = draw(st.lists(st.text("abt_0", min_size=1, max_size=3), min_size=1, max_size=5, unique=True))
    n_rows = draw(st.integers(0, 6))
    return {name: draw(st.lists(CELLS, min_size=n_rows, max_size=n_rows)) for name in names}


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_csv_lines_write_the_row_writers_bytes(table):
    rows = [list(row) for row in zip(*table.values())]
    assert "".join(csv_lines(table)).encode() == _row_writer_text(list(table), rows).encode()


def test_svg_lineplot_is_wellformed_xml(tmp_path):
    path = tmp_path / "plot.svg"
    svg_lineplot(
        path,
        [
            {"label": "one", "x": [0.1, 1.0, 10.0], "y": [0.0, 0.5, 1.0]},
            {"label": "two", "x": [0.1, 1.0, 10.0], "y": [0.9, float("nan"), 0.1], "dash": "4,2"},
        ],
        title="demo",
    )
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert "polyline" in body and "demo" in body


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_usage_error_missing_required_flag():
    with pytest.raises(SystemExit) as exc:
        main(["disk", "--rt", "0.5", "--t-grid", "1"])
    assert exc.value.code == 64


def test_usage_error_bad_grid():
    with pytest.raises(SystemExit) as exc:
        main(["disk", "--r", "1", "--rt", "0.5", "--t-grid", "1,zap"])
    assert exc.value.code == 64


def test_domain_error_exit_code(capsys):
    assert main(["bessel", "--x-min", "0"]) == 1
    assert "domain error" in capsys.readouterr().err


def test_hypothesis_error_exit_code(tmp_path, capsys):
    rc = main(
        ["verify", "theorem1", "--r", "5", "--tau", "1", "--n", "10", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "hypothesis" in capsys.readouterr().err


def test_convergence_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trapprob.segment_sim, "STEP_CAP", 1)
    rc = main(
        [
            "simulate",
            "--radius", "1000",
            "--n", "4",
            "--tmax", "1e30",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 3
    assert "convergence" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--radius", "5", "--n", "3", "--a", "-1e-3"], 0),
        (["simulate", "--radius", "5", "--n", "3", "--tmax", "-1e-3"], 1),
        (["disk", "--r", "5", "--rt", "0.5", "--t-grid", "-1e-3"], 1),
        (["verify", "theorem2", "--zx", "-5e0", "--tau", "1000", "--n", "10"], 0),
        (["verify", "theorem1", "--r", "5", "--tau", "-.5E+2", "--n", "10"], 2),
    ],
)
def test_negative_values_in_any_float_form(argv, code, tmp_path):
    # argparse's own pattern reads -1e-3 and -inf as flags (exit 64)
    out = [] if argv[0] == "disk" else ["--out-dir", str(tmp_path)]
    assert main(argv + out) == code


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_negative_non_finite_end_exits_1(value, tmp_path, capsys):
    rc = main(["simulate", "--radius", "5", "--n", "3", "--a", value, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "segment ends must be finite" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# bessel


def test_bessel_stdout_table(capsys):
    assert main(["bessel", "--x-min", "0.1", "--x-max", "1", "--points", "3", "--max-m", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,k0,k0_err,i0,lower_0,upper_0,lower_1,upper_1"
    assert len(lines) == 4
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(0.1)
    # bracket columns straddle the kernel column
    assert first[4] <= first[1] <= first[5]


def test_bessel_csv_and_sidecar_manifest(tmp_path):
    out = tmp_path / "bessel.csv"
    assert main(
        ["bessel", "--x-min", "0.5", "--x-max", "2", "--points", "2", "--max-m", "0", "--out", str(out)]
    ) == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "bessel.csv.manifest.json").read_text())
    assert manifest["command"] == "bessel"
    assert manifest["parameters"]["points"] == 2
    assert manifest["tool_version"]


def test_manifest_records_the_environment(tmp_path):
    # the bit pins hold on one numpy dispatch target, so a manifest names
    # the Python and numpy versions and the float64 target of each ufunc
    # the kernels and the sampler call
    out = tmp_path / "bessel.csv"
    assert main(["bessel", "--points", "1", "--max-m", "0", "--out", str(out)]) == 0
    env = json.loads((tmp_path / "bessel.csv.manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "numpy_float64_dispatch"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    dispatch = env["numpy_float64_dispatch"]
    assert set(dispatch) == {"log", "exp", "sinh", "tan", "cos", "sin", "sqrt"}
    assert all(isinstance(target, str) and target for target in dispatch.values())


def test_bessel_zero_points_writes_the_header_only(tmp_path, capsys):
    assert main(["bessel", "--points", "0", "--max-m", "1"]) == 0
    assert capsys.readouterr().out == "x,k0,k0_err,i0,lower_0,upper_0,lower_1,upper_1\n"
    out = tmp_path / "bessel.csv"
    assert main(["bessel", "--points", "0", "--max-m", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["x,k0,k0_err,i0,lower_0,upper_0"]


def test_bessel_past_the_i0_range_names_one_x(capsys):
    # the default 50-point grid from 1e-4 to 100: the message names the
    # first x above 50, not the whole grid
    assert main(["bessel", "--x-max", "100"]) == 1
    xs = np.logspace(-4.0, 2.0, 50)
    first = float(xs[xs > 50.0][0])
    assert capsys.readouterr().err == f"trapprob: domain error: bessel_i needs 0 <= x <= 50, got {first!r}\n"


# ---------------------------------------------------------------------------
# disk


def test_disk_table_values(capsys):
    assert main(["disk", "--r", "1", "--rt", "0.5", "--t-grid", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,p_disk,f_disk,hunt_raw,hunt_tau0"
    row = dict(zip(lines[0].split(","), (float(tok) for tok in lines[1].split(","))))
    assert row["f_disk"] == pytest.approx(0.4554475901082080, rel=1e-11)
    assert 0.0 <= row["p_disk"] <= 1.0


def test_disk_tiny_tau_no_traceback(capsys):
    # k0 underflows at both radii here; f_disk must still answer
    assert main(["disk", "--r", "5", "--rt", "0.5", "--t-grid", "1e-9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(lines[0].split(","), (float(tok) for tok in lines[1].split(","))))
    assert 0.0 <= row["f_disk"] <= 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--r", "5", "--rt", "0.5", "--t-grid", "nan"], "t must be finite"),
        (["--r", "5", "--rt", "1e-300", "--t-grid", "1"], "r_T=1e-300"),
    ],
)
def test_disk_degenerate_inputs_exit_1(argv, message, capsys):
    assert main(["disk", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trapprob: domain error:") and message in err


@pytest.mark.parametrize(
    "flags",
    [["--points", "-1"], ["--x-max", "inf"], ["--max-m", "48"], ["--x-max", "1.7976931348623157e308"], ["--max-m", "-1"]],
)
def test_bessel_bad_grid_exits_1(flags, capsys):
    assert main(["bessel", *flags]) == 1
    assert capsys.readouterr().err.startswith("trapprob: domain error:")


@pytest.mark.parametrize("count", [np.iinfo(np.intp).max + 1, 2**62, 10**19])
def test_bessel_too_many_points_exits_1(count, capsys):
    # numpy refuses each of these sizes before allocating (from 2^63 on it
    # would build an empty range, so the CLI refuses them itself)
    assert main(["bessel", "--points", str(count)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trapprob: domain error: --points ") and "is too many points" in err


@pytest.mark.parametrize("command", ["bessel", "figures", "conjecture"])
def test_grid_that_cannot_be_allocated_exits_1(command, monkeypatch, tmp_path, capsys):
    # what numpy raises when the allocation itself fails, without making one
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(np, "logspace", no_memory)
    if command == "bessel":
        argv, flag = ["bessel", "--points", "100000000000"], "--points 100000000000"
    else:
        argv = [command, "--n", "10", "--radii", "1,5", "--t-points", "100000000000", "--out-dir", str(tmp_path)]
        flag = "--t-points 100000000000"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"trapprob: domain error: {flag} is too many points")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--radius", "2"],
        ["verify", "theorem1", "--r", "5", "--tau", "100"],
        ["verify", "theorem2", "--zx", "5", "--tau", "100"],
        ["figures"],
        ["conjecture"],
    ],
)
def test_too_many_trajectories_exit_1_naming_n(argv, tmp_path, capsys):
    # numpy refuses the records of 10**15 walks (22 PiB) without allocating them
    assert main([*argv, "--n", str(10**15), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"trapprob: domain error: --n {10**15} is too many trajectories: their records do not fit in memory\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_disk_tau_grid_is_an_unknown_flag():
    # --t-grid is the one time grid flag; any other is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["disk", "--r", "1", "--rt", "0.5", "--t-grid", "1", "--tau-grid", "1"])
    assert exc.value.code == 64


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_records_and_manifest(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--radius", "2",
            "--n", "50",
            "--tmax", "100",
            "--seed", "5",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert "simulated 50 trajectories" in capsys.readouterr().out
    lines = (tmp_path / "records.csv").read_text().strip().splitlines()
    assert lines[0] == "index,time,x,y,censored,steps"
    assert len(lines) == 51
    cells = [ln.split(",") for ln in lines[1:]]
    assert [row[0] for row in cells] == [str(i) for i in range(50)]
    assert {row[4] for row in cells} == {"0", "1"}  # booleans as 0/1, both occur
    for row in cells:
        if row[4] == "1":
            assert row[2] == "" and row[3] == ""
        else:
            assert abs(float(row[2])) <= 1.0 and row[3] == "0"
        assert int(row[5]) >= 1  # from r = 2 no walk starts on the trap
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["sampler_stream"] == SAMPLER_STREAM


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--radius", "2", "--n", "40", "--tmax", "50", "--seed", "9"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()


def test_simulate_shifted_segment(tmp_path):
    # [-3, 2] is not its own unit frame: records are mapped back from it
    tmax = 500.0
    args = ["simulate", "--a", "-3", "--b", "2", "--radius", "7", "--n", "400",
            "--tmax", str(tmax), "--seed", "4", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "records.csv").read_text().strip().splitlines()
    assert len(lines) == 401
    n_hit = 0
    for ln in lines[1:]:
        _, time, x, y, censored, _ = ln.split(",")
        if censored == "1":
            assert x == "" and y == ""
            assert float(time) > tmax
        else:
            n_hit += 1
            assert -3.0 - 1e-12 <= float(x) <= 2.0 + 1e-12
            assert abs(float(y)) <= 1e-12
            assert float(time) <= tmax
    assert 0 < n_hit < 400


def test_simulate_time_past_the_double_range_reads_inf(tmp_path):
    # on a segment of half-length 1e153 the walk's times are in units of
    # 1e306; a censored time past 180 units overflows when scaled back and
    # must read inf, without a numpy overflow warning (an error here)
    rc = main(["simulate", "--a", "-1e153", "--b", "1e153", "--radius", "2e153", "--n", "50",
               "--tmax", "1e306", "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 0
    cells = [ln.split(",") for ln in (tmp_path / "records.csv").read_text().strip().splitlines()[1:]]
    times = [float(row[1]) for row in cells]
    assert math.inf in times
    assert all(t > 1e306 for t, row in zip(times, cells) if row[4] == "1")


def test_simulate_negative_seed_exits_1(tmp_path, capsys):
    rc = main(["simulate", "--radius", "2", "--n", "5", "--seed", "-1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_seed_above_range_exits_1(tmp_path, capsys):
    rc = main(
        ["verify", "theorem1", "--r", "5", "--tau", "120", "--n", "10",
         "--seed", str(2**64), "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err


def test_verify_theorem1_outputs(tmp_path, capsys):
    rc = main(
        [
            "verify", "theorem1",
            "--r", "5",
            "--tau", "120",
            "--n", "2000",
            "--seed", "11",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "theorem1" in out and ("holds" in out or "violated" in out)
    reports = json.loads((tmp_path / "bound_reports.json").read_text())
    assert len(reports) == 1
    rep = reports[0]
    assert set(rep) == {"label", "lhs", "rhs", "margin", "statistical_slack", "verdict"}
    assert rep["margin"] == pytest.approx(rep["rhs"] - rep["lhs"])
    csv_lines = (tmp_path / "bound_reports.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "label,lhs,rhs,margin,statistical_slack,verdict"
    assert len(csv_lines) == 2


def test_verify_theorem2_two_reports(tmp_path):
    rc = main(
        [
            "verify", "theorem2",
            "--zx", "5",
            "--tau", "1000",
            "--n", "2000",
            "--seed", "11",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    reports = json.loads((tmp_path / "bound_reports.json").read_text())
    assert [r["label"].split("[")[0] for r in reports] == ["theorem2-lower", "theorem2-upper"]


@pytest.mark.parametrize("args, verdicts", [
    (["theorem1", "--r", "6"], ["holds_within_mc_error"]),
    (["theorem2", "--zx", "5"], ["holds", "holds_within_mc_error"]),
])
def test_verify_ten_captured_walks_are_not_a_violation(tmp_path, capsys, args, verdicts):
    # all 10 walks are captured long before tau = 1e300, so every summand
    # is 1 and the sample deviation 0; the slack once read 0 and turned a
    # margin of about -2e-3 into "violated"
    rc = main(["verify", *args, "--tau", "1e300", "--n", "10", "--out-dir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    reports = json.loads((tmp_path / "bound_reports.json").read_text())
    assert [r["verdict"] for r in reports] == verdicts
    assert all(0.29 < r["statistical_slack"] <= 0.3 for r in reports)


# ---------------------------------------------------------------------------
# figures and conjecture


FIGURE_ARGS = [
    "figures",
    "--n", "200",
    "--seed", "7",
    "--radii", "1,5",
    "--t-min", "0.5",
    "--t-max", "100",
    "--t-points", "5",
]


def test_figures_outputs(tmp_path, capsys):
    assert main(FIGURE_ARGS + ["--out-dir", str(tmp_path)]) == 0
    for name in ("figure1.csv", "figure2.csv", "figure1.svg", "figure2.svg", "manifest.json"):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "figure1.csv").read_text().strip().splitlines()
    assert lines[0] == "r,t,prop,ci_lo,ci_hi,p_disk,hunt_raw,hunt_tau0"
    assert len(lines) == 1 + 2 * 5
    lines2 = (tmp_path / "figure2.csv").read_text().strip().splitlines()
    assert lines2[0] == "r,t,surv,surv_ci_lo,surv_ci_hi,surv_p_disk,surv_hunt_raw,surv_hunt_tau0"
    ET.fromstring((tmp_path / "figure1.svg").read_text())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["sampler_stream"] == SAMPLER_STREAM


def test_figures_byte_identical_reruns(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(FIGURE_ARGS + ["--out-dir", str(d1)]) == 0
    assert main(FIGURE_ARGS + ["--out-dir", str(d2)]) == 0
    for name in ("figure1.csv", "figure2.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_conjecture_outputs(tmp_path, capsys):
    rc = main(
        [
            "conjecture",
            "--radii", "1,5",
            "--n", "500",
            "--t-min", "1",
            "--t-max", "100",
            "--t-points", "3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert "worst survival-relative deviation" in capsys.readouterr().out
    lines = (tmp_path / "conjecture.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,sup_rel_capture,sup_rel_survival")
    assert len(lines) == 4


@pytest.mark.parametrize("command", ["figures", "conjecture"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t-min", "0"], "positive --t-min"),
        (["--t-min", "-1"], "positive --t-min"),
        (["--t-max", "-1e-3"], "positive --t-min"),
        (["--t-points", "0"], "--t-points must be >= 1"),
        (["--t-points", "-3"], "--t-points must be >= 1"),
        (["--t-max", "inf"], "need finite --t-min and --t-max"),
        (["--t-min", "inf"], "need finite --t-min and --t-max"),
        # 10**log10(t_max) rounds past the largest double: the last point is inf
        (["--t-max", "1.7976931348623157e308"], "leaves the double range"),
        # above the largest intp: numpy refuses the size before allocating
        (["--t-points", "10000000000000000000"], "--t-points 10000000000000000000 is too many points"),
        # a descending grid is refused by its flags, not by the grid check
        (["--t-min", "10", "--t-max", "1"], "need --t-min <= --t-max, got 10.0 and 1.0"),
    ],
)
def test_bad_time_grid_exits_1(command, flags, message, tmp_path, capsys):
    rc = main([command, "--n", "10", "--radii", "1,5", *flags, "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("trapprob: domain error:") and message in err


def test_figures_repeated_radius_draws_each_copy_once(tmp_path):
    # each copy of a repeated radius is its own block of rows, and its SVG
    # series holds that block's grid points alone
    assert main(["figures", "--n", "100", "--radii", "1,1", "--t-points", "3", "--out-dir", str(tmp_path)]) == 0
    for name in ("figure1.svg", "figure2.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline") or root.findall(".//polyline")
        assert polylines
        assert {len(p.get("points").split()) for p in polylines} == {3}, name


def test_figures_draw_each_of_five_radii_in_its_own_colour(tmp_path):
    # the palette holds six colours, so five radii need not share one
    assert main(["figures", "--n", "50", "--radii", "1,2,3,4,5", "--t-points", "3", "--out-dir", str(tmp_path)]) == 0
    for name in ("figure1.svg", "figure2.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline") or root.findall(".//polyline")
        assert len({p.get("stroke") for p in polylines}) == 5, name


def test_figures_checks_radii_before_any_walk(tmp_path, capsys, monkeypatch):
    walks = []
    monkeypatch.setattr(trapprob.verify, "release_and_sample", lambda *args, **kwargs: walks.append(args))
    assert main(["figures", "--radii", "0.3,125", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "trapprob: domain error: release radius 0.3 inside the disk of radius 0.5\n"
    assert walks == []


def test_one_point_time_grid_works(tmp_path):
    rc = main(["figures", "--n", "20", "--radii", "1,5", "--t-min", "3", "--t-points", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len((tmp_path / "figure1.csv").read_text().strip().splitlines()) == 1 + 2


# ---------------------------------------------------------------------------
# pinned outputs

# One small run of every subcommand.  Each path is relative to a fresh
# directory; "{out}" stands for that directory.
PINNED_COMMANDS = [
    ["bessel", "--x-min", "0.5", "--x-max", "2", "--points", "4", "--max-m", "2", "--out", "{out}/bessel.csv"],
    ["disk", "--r", "2", "--rt", "0.5", "--t-grid", "0.5,2,10", "--out", "{out}/disk.csv"],
    ["simulate", "--a", "2", "--b", "6", "--radius", "9", "--n", "200", "--tmax", "100", "--seed", "3",
     "--out-dir", "{out}/simulate"],
    ["verify", "theorem1", "--a", "2", "--b", "6", "--r", "8", "--tau", "40", "--n", "500", "--seed", "5",
     "--out-dir", "{out}/theorem1"],
    ["verify", "theorem2", "--zx", "5", "--tau", "1000", "--n", "500", "--seed", "5", "--out-dir", "{out}/theorem2"],
    ["figures", "--n", "500", "--seed", "7", "--radii", "1,5", "--t-min", "0.5", "--t-max", "100",
     "--t-points", "5", "--out-dir", "{out}/figures"],
    ["conjecture", "--a", "-3", "--b", "1", "--radii", "3,9", "--n", "300", "--seed", "2", "--t-min", "0.001",
     "--t-max", "1000", "--t-points", "7", "--out-dir", "{out}/conjecture"],
]

# sha256 of every file the commands above write, and of what they print.  Manifests are hashed
# without their timestamps, environment and output paths (see _pinned_bytes), so this
# also pins each subcommand's parsed defaults.
# disk.csv, figure1/2.csv and conjecture.csv were retaken when p_disk's
# tail became exact: each p_disk value fell by 1.56e-9 ln(r/r_T), which
# moves the conjecture's ratios to it.  conjecture.csv was retaken when
# J0/Y0 on x <= 15 came to be read from a double table: its ratio at
# t = 0.1 divides by p_disk = 1.5e-10, which sits at the quadrature's
# absolute floor and moved by a few 1e-16.  figure1.csv and conjecture.csv
# were retaken when p_disk's log part came to start from panels graded
# toward its top: one p_disk cell of figure1.csv and two ratios of
# conjecture.csv moved in their last printed digit, each p_disk value to
# within 3.3e-15 of Talbot inversion.  figure1.csv and conjecture.csv were
# retaken when p_disk's two parts became one integral: the same cell of
# figure1.csv and the t = 0.1 ratio of conjecture.csv moved in their last
# printed digit, each p_disk value by 1.1e-16 and 2.2e-16 at the
# quadrature's absolute floor, within 3.5e-15 of Talbot inversion.
# theorem1/bound_reports.csv and .json and stdout were retaken when
# check_theorem1 came to release at r0 = 6 and carry the mean out to r = 8
# by f_disk(8, 6, tau): the label names the release radius, and lhs and
# slack read 0.02466 and 0.02493 (0.03069 and 0.03347 from direct release
# at r = 8), rhs and verdict unchanged.  disk.csv.manifest.json was
# retaken when `disk` dropped --tau-grid, a second flag for the same time
# grid: its parameters lost "tau_grid": null and nothing else (the old
# manifest without that key hashes to the new digest).  figure1.csv was
# retaken when p_disk's log part came to start at s = -20 above an exact
# tail: two p_disk cells at r = 5 (t = 0.5 and 1.88) moved in their last
# printed digit, each by 1.1e-16 and 2.2e-16.  Every digest but
# bessel.csv's and disk.csv's was retaken when the walk came to draw a
# Cauchy landing and an exponential clock (SAMPLER_STREAM
# "philox4x32-10/cauchy-exp/3"): the walk outputs and stdout hold new draws
# of the same law, and each manifest carries the new stream name.  They read
# the same on the X86_V4 and X86_V3 dispatch paths.  The other digests are
# as first taken.
PINNED_SHA256 = {
    "bessel.csv": "c85cd508c0492b2a152b8ac2c5b9f07690dc53c3972765274216700bf589da1f",
    "bessel.csv.manifest.json": "2013bb61c9bd343597b9ec301adf542a3115f415e5cc9857eaf0ccc3806ab9cb",
    "conjecture/conjecture.csv": "98dc290a6289b7ddeab10e686736fc85146af0eb6f455d2643beac7cd5ff0063",
    "conjecture/manifest.json": "ca8d9034341be94e1955eb69b1fb41e4bfa449e07c528babfd65be76afb774fb",
    "disk.csv": "0716510287c94625bbc65258e99913e0163512e2ae35f74fa25c409fc121f34e",
    "disk.csv.manifest.json": "efff4c40ea9e893335132074102e276ee483e9a3946f3a9dd78c3288fa92c841",
    "figures/figure1.csv": "8e7bbbaec271ee46cda0832104d445a27e111a86efc0434c7cd41adef3469aed",
    "figures/figure1.svg": "6b0455e37c2ca0b2777ddd2667d41088c3d43051946e16f0f73331f9ef3f598d",
    "figures/figure2.csv": "51243ba8e7c513876e16a4afb51b1bb86f7a0ca19fe5515406ce1d236976f9d6",
    "figures/figure2.svg": "c3895bfb7d18e2554a2d70e44b1b685de956b8f4cb2fbaaa6140b6ab2c9eeb9e",
    "figures/manifest.json": "112030a3f15daeafe19c8658e9649959f4176b8f607c1ebef3a45febaaade1f2",
    "simulate/manifest.json": "366d4feaf3e4f0ebef17781c1fca3a4c077978ed7121e005801747ca0f6261ab",
    "simulate/records.csv": "3b1d04f94671dfd249076d95c6802ee37e2927c4539d4728205448dbc5c63b5b",
    "theorem1/bound_reports.csv": "56647a07c39488e48c117851b79692c41705108ec9b7a47010b9830d10e31714",
    "theorem1/bound_reports.json": "2a1e0819db79de613c838312b8f889adf9f0d784fc9d452af961acbc3d1f9a05",
    "theorem1/manifest.json": "6d41de3d14f3f3a08d3054381e0a3e4f58463d9c49b8a5df6ef5f4139032e834",
    "theorem2/bound_reports.csv": "14198706298da4da4fbe943c0a7a219e0f07c9dd0bb50d1a00c490dfbca45810",
    "theorem2/bound_reports.json": "ce88118ebc6afc324b8d215a7d713d19107f0c3835c90c5fd2527a1c3dab7a31",
    "theorem2/manifest.json": "a297038985baae45ec896f58126e7a4edffbf815946fa384fe3041eaf3e6ac07",
    "stdout": "40477b6aedb5c9853d620d7876a4016ca913a41197141786d1154a9d8d1c4302",
}


def _pinned_bytes(path):
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        manifest = json.loads(data)
        # the timestamps and the machine's environment are not pinned
        del manifest["started"], manifest["finished"], manifest["environment"]
        for key in ("out", "out_dir"):
            manifest["parameters"].pop(key, None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return data


def test_outputs_pinned(tmp_path, capsys):
    for argv in PINNED_COMMANDS:
        assert main([tok.replace("{out}", str(tmp_path)) for tok in argv]) == 0, argv
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(_pinned_bytes(path)).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    stdout = capsys.readouterr().out.replace(str(tmp_path), "{out}")
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert digests == PINNED_SHA256
