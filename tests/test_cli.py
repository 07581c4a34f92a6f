"""CLI artifact and interface tests."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinhodo
from spinhodo import cli, integrator
from spinhodo.cli import (UnsupportedAnalytic, closure_search, default_config,
                          main, run_preset, simulate)
from spinhodo.elliptic import complete_k
from spinhodo.integrator import IntegratorConfig, integrate, resample_uniform
from spinhodo.presets import PRESETS
from spinhodo.qubit import DampingParams, FieldParams, InitialAngles, make_bloch_rhs
from spinhodo.qutrit import (AnisotropyParams, bloch8_from_density,
                             initial_density_north, make_qutrit_rhs_real)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _refuse(*args, **kwargs):
    raise AssertionError("a right-hand side was built, or DOP853 stepped")


@pytest.fixture(scope="module")
def fig5_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    report = run_preset("fig5", out_dir=out)
    return out, report


@pytest.fixture(scope="module")
def fig8_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig8")
    report = run_preset("fig8", out_dir=out)
    return out, report


def test_artifact_files_written(fig5_run):
    out, _ = fig5_run
    for name in ("trajectory.csv", "geometry.csv", "report.json", "plot.gp"):
        assert (out / name).exists()


def test_trajectory_csv_schema(fig5_run):
    out, report = fig5_run
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "R1", "R2", "R3", "p1", "p2", "p3", "theta", "phi",
                      "theta_dot", "phi_dot", "curvature", "torsion", "speed",
                      "arc_length", "P", "E", "h1", "h2", "h3"]
    assert len(lines) - 1 == report["n_samples"]
    # 17 significant digits survive a round trip
    row = lines[len(lines) // 2].split(",")
    assert float(row[3]) != round(float(row[3]), 6)


def test_report_matches_emitted_trajectory(fig5_run):
    out, report = fig5_run
    data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert report["observed"]["flip_probability"][1] == pytest.approx(
        float(np.nanmax(data["P"])), abs=0.0)
    assert report["observed"]["arc_length"] == pytest.approx(
        float(data["arc_length"][-1]), abs=0.0)


def test_plot_script_references_csvs(fig5_run):
    out, _ = fig5_run
    script = (out / "plot.gp").read_text()
    assert "trajectory.csv" in script and "geometry.csv" in script


def test_report_is_deterministic(fig5_run, tmp_path):
    out, _ = fig5_run
    again = tmp_path / "again"
    run_preset("fig5", out_dir=again)
    assert (again / "report.json").read_text() == (out / "report.json").read_text()
    assert (again / "trajectory.csv").read_text() == (out / "trajectory.csv").read_text()


def _write_csv_per_cell(path, header, columns):
    """Reference CSV writer: one cell formatted at a time."""
    def fmt(x):
        if isinstance(x, float) and math.isnan(x):
            return "nan"
        return format(float(x), ".17g")

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(fmt(col[i]) for col in columns) + "\n")


def _write_csvs_per_cell(out, t, lead, shared, tail, valid, pole):
    """Reference for cli._write_csvs: each file written on its own, one cell
    at a time, the flags as floats."""
    _write_csv_per_cell(out / "geometry.ref", ["t", *shared, "valid", "pole"],
                        [t, *shared.values(), np.asarray(valid, dtype=float),
                         np.asarray(pole, dtype=float)])
    _write_csv_per_cell(out / "trajectory.ref", ["t", *lead, *shared, *tail],
                        [t, *lead.values(), *shared.values(), *tail.values()])


def _assert_csvs_match_reference(out):
    for name in ("geometry", "trajectory"):
        assert (out / f"{name}.csv").read_bytes() == (out / f"{name}.ref").read_bytes()


@pytest.mark.parametrize("preset", ["fig5", "fig8"])   # qubit, qutrit
def test_csv_writer_matches_per_cell_reference(preset, tmp_path, monkeypatch):
    calls = []
    write_csvs = cli._write_csvs

    def write_both(*args):
        write_csvs(*args)
        _write_csvs_per_cell(*args)
        calls.append(args[0])

    monkeypatch.setattr(cli, "_write_csvs", write_both)
    run_preset(preset, out_dir=tmp_path)
    assert calls == [tmp_path]
    _assert_csvs_match_reference(tmp_path)


def test_csv_writer_special_values(tmp_path):
    # non-finite values, signed zeros and subnormals in every column group,
    # and 0/1 flags in all four combinations, over several row blocks
    rng = np.random.default_rng(3)
    n = 2 * cli._CSV_BLOCK_ROWS + 17
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
                        -2.2250738585072014e-308, 1.0, 1 / 3, 1e300, 0.1])

    def wide():
        return rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)

    def spec():
        return special[rng.integers(0, len(special), size=n)]

    args = (tmp_path, spec(), {"a": wide(), "b": spec()}, {"c": spec(), "d": wide()},
            {"e": spec()}, rng.random(n) < 0.5, rng.random(n) < 0.5)
    cli._write_csvs(*args)
    _write_csvs_per_cell(*args)
    _assert_csvs_match_reference(tmp_path)


def _assert_g17(values):
    """cli._g17_slots gives the bytes of "%.17g" % v for every value."""
    x = np.asarray(values, dtype=np.float64)
    slots = cli._g17_slots(x)
    assert slots.shape == (30, len(x)) and slots.flags.c_contiguous   # slot-major
    slots[-1] = ord("\n")
    got = slots.T.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    want = ["%.17g" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@settings(deadline=None)
@given(st.floats())
@example(1e-12)                  # log10 gives X = -12, where it scales to 9999999999999999.8
@example(99999999999999999.0)    # the double 1e17
@example(1e16)
@example(1e17)
@example(1e-4)                   # the last fixed exponent
@example(1e-5)                   # the first scientific one below 1
@example(-0.0)
@example(5e-324)
@example(1e300)
@example(1e260)
@example(-1e260)
@example(1e-260)
@example(-1e-260)
@example(2.0 ** -25)             # 2.98023223876953125e-08: an exact tie, kept even
@example(43 * 2.0 ** -22)        # 1.02519989013671875e-05: an exact tie, rounded up to even
def test_g17_matches_percent_format(x):
    _assert_g17([x])


def test_g17_matches_percent_format_in_bulk():
    # every exponent, sign, payload and subnormal, in blocks as the writer
    # passes them; then +-3 ulps around every power of ten, where log10 puts
    # the exponent one off and the digits carry into the next decade
    bits = np.random.default_rng(10).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    for block in np.split(bits.view(np.float64), 20):
        _assert_g17(block)
    tens = np.array([float(f"1e{e}") for e in range(-300, 301)]).view(np.int64)
    near = np.concatenate([(tens + ulps).view(np.float64) for ulps in range(-3, 4)])
    _assert_g17(np.concatenate([near, -near]))


def test_format_tables_are_built_on_first_write():
    # building them costs milliseconds that every import would pay
    probe = "import spinhodo.cli as c; assert c._format_tables.cache_info().currsize == 0"
    env = {**os.environ, "PYTHONPATH": str(Path(spinhodo.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_csv_writer_peak_memory_is_one_block(tmp_path, monkeypatch):
    # the writer formats _CSV_BLOCK_ROWS rows at a time, so on fig10 (20,001
    # rows of 27 cells) its peak stays under 4 MB and under that of the run
    calls = []
    monkeypatch.setattr(cli, "write_artifacts", lambda *args: calls.append(args))
    tracemalloc.start()
    try:
        run_preset("fig10", out_dir=tmp_path)
        run_peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.undo()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cli.write_artifacts(*calls[0])
        write_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert write_peak < min(4e6, run_peak)


def test_caption_checks_recorded(fig5_run):
    _, report = fig5_run
    names = {c["quantity"] for c in report["caption_checks"]}
    assert {"flip_probability", "speed", "curvature", "torsion", "arc_length"} <= names
    assert all(c["passed"] for c in report["caption_checks"])


def test_qutrit_preset_report(fig8_run):
    out, report = fig8_run
    assert report["system"] == "qutrit"
    pops = report["observed"]["populations"]
    assert pops["p_minus"][1] == pytest.approx(1.0, abs=1e-8)
    data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert "q1" in data.dtype.names and "P_minus" in data.dtype.names
    total = data["P_plus"] + data["P_zero"] + data["P_minus"]
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_qutrit_trajectory_csv_schema(fig8_run):
    out, report = fig8_run
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8",
                      "p1", "p2", "p3", "theta", "phi", "theta_dot", "phi_dot",
                      "curvature", "torsion", "speed", "arc_length",
                      "P_plus", "P_zero", "P_minus", "E", "h1", "h2", "h3"]
    assert len(lines) - 1 == report["n_samples"]


@pytest.mark.parametrize("name", ["fig5", "fig8"])
def test_simulate_matches_preset(name, request):
    # a free run with a preset's parameters goes down the preset's path
    preset = PRESETS[name]
    _, by_preset = request.getfixturevalue(f"{name}_run")
    free = simulate(preset.system, preset.fieldp, preset.duration, dp=preset.damping,
                    init=preset.init, ap=preset.aniso, n_out=preset.n_output)
    for key in ("parameters", "n_samples", "integrator", "observed", "events"):
        assert free[key] == by_preset[key], key
    assert free["preset"] is None and free["caption_checks"] is None


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        run_preset("fig42")


def test_simulate_analytic_deviation(tmp_path):
    fp = FieldParams.circular(0.5, 0.3, 0.7)
    report = simulate("qubit", fp, 12.0, out_dir=tmp_path,
                      dp=DampingParams.uniform(0.1),
                      init=InitialAngles(0.4, 0.2), n_out=501, analytic=True)
    assert report["analytic_max_deviation"] < 1e-8


def test_simulate_analytic_unsupported():
    fp = FieldParams.linear(0.5, 0.3, 0.7)
    with pytest.raises(UnsupportedAnalytic):
        simulate("qubit", fp, 5.0, n_out=201, analytic=True)
    fp2 = FieldParams.elliptic(0.5, 0.4, 0.7, 0.5)   # detuned: no closed form
    with pytest.raises(UnsupportedAnalytic):
        simulate("qubit", fp2, 5.0, n_out=201, analytic=True)


def test_simulate_elliptic_impulse_field_columns(tmp_path):
    # k = 1 drive: the emitted field columns carry the sech/tanh envelope
    h, H, w = 0.5, 0.3, 0.3
    fp = FieldParams.elliptic(h, H, w, 1.0)
    simulate("qubit", fp, 20.0, out_dir=tmp_path, init=InitialAngles(0.0, 0.0),
             n_out=801, analytic=False)
    data = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)
    ts = data["t"]
    assert np.max(np.abs(data["h1"] - h / np.cosh(w * ts))) < 1e-12
    assert np.max(np.abs(data["h2"] - h * np.tanh(w * ts))) < 1e-12
    assert np.max(np.abs(data["h3"] - H / np.cosh(w * ts))) < 1e-12


def test_closure_search_qubit():
    rows = closure_search("qubit", 2, 3, omega=0.2, H=0.2)
    by_pair = {(r["x"], r["y"]): r for r in rows}
    assert by_pair[(1, 1)]["h"] == pytest.approx(0.2)
    for r in rows:
        if r["feasible"] and r["h"] > 0:
            assert r["residual"] < 1e-6


def test_closure_search_qutrit_infeasible_marked():
    rows = closure_search("qutrit", 3, 2, Q=1.0)
    infeasible = [(r["x"], r["y"]) for r in rows if not r["feasible"]]
    assert (2, 1) in infeasible and (3, 2) in infeasible
    good = {(r["x"], r["y"]): r for r in rows if r["feasible"]}
    assert good[(1, 2)]["residual"] < 1e-5


@pytest.mark.parametrize("system, kwargs", [
    ("qutrit", {"Q": 1.0}), ("qubit", {"omega": 0.3, "H": 0.45}),
], ids=["qutrit", "qubit"])
def test_closure_search_takes_no_dop853_step(system, kwargs, monkeypatch):
    # every DOP853 step, integrate's and resample_uniform's, runs in
    # integrator._run; both searches are static in the frame of their solve
    monkeypatch.setattr(cli, "integrate", _refuse)
    monkeypatch.setattr(integrator, "_run", _refuse)
    rows = [r for r in closure_search(system, 6 if system == "qutrit" else 4, 4, **kwargs)
            if r["feasible"]]
    assert len(rows) >= 10 and max(r["residual"] for r in rows) < 1e-12


@settings(max_examples=40, deadline=None)
@given(qutrit=st.booleans(), omega=st.one_of(_finite(-5, -0.01), _finite(0.01, 5)),
       detuning=_finite(-2.9, 2.9), Q=st.one_of(_finite(-5, -0.01), _finite(0.01, 5)))
def test_closure_search_closes_every_feasible_pair(qutrit, omega, detuning, Q):
    # the qubit's drive is static in its co-rotating frame, which is back at
    # the identity after x drive periods; the qutrit's is at omega = 0.  A
    # pair is feasible where |H - omega| <= (y/x) |omega|, so at some pair
    # for |H - omega| < 3 |omega|
    rows = (closure_search("qutrit", 3, 3, Q=Q) if qutrit
            else closure_search("qubit", 3, 3, omega=omega, H=omega + detuning * abs(omega)))
    residuals = [r["residual"] for r in rows if r["feasible"]]
    assert residuals and max(residuals) < 1e-10


def test_closure_search_qutrit_rejects_zero_anisotropy():
    with pytest.raises(ValueError, match="axial anisotropy Q"):
        closure_search("qutrit", 2, 2, Q=0.0)


@pytest.mark.parametrize("flag", ["--xmax", "--ymax"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_main_closure_rejects_an_empty_grid(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closure", "--system", "qubit", "--omega", "0.3", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be at least 1" in captured.err
    assert captured.out == ""


def test_main_closure_names_zero_anisotropy(capsys):
    assert main(["closure", "--system", "qutrit", "--Q", "0"]) == 2
    assert "axial anisotropy Q" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--duration", "--periods"])
@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf", "-inf"])
def test_main_simulate_rejects_a_bad_length(flag, value, tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--system", "qubit", "--h", "0.5", f"{flag}={value}", "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_main_simulate_caps_the_sample_count(tmp_path, capsys):
    # 1e9 periods asked numpy for 2e12 + 1 samples and died with a MemoryError
    out = tmp_path / "run"
    assert cli._grid_size(500.0) == cli._MAX_SAMPLES
    for periods in ("1e9", "500.0005"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--system", "qubit", "--periods", periods, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --periods: " in err and "over the cap of 1000001" in err
        assert "--duration" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--omega", "--H", "--Q", "--d"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_main_closure_rejects_a_non_finite_value(flag, value, capsys):
    # --H inf made every pair infeasible with exit 0, and --d nan was
    # reported as h1
    with pytest.raises(SystemExit) as exc:
        main(["closure", "--system", "qutrit" if flag in ("--Q", "--d") else "qubit",
              f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be finite, got {value}" in captured.err
    assert captured.out == ""


def test_report_counts_rhs_evaluations(tmp_path, monkeypatch):
    calls = []

    def counting_make_bloch_rhs(fp, dp):
        rhs = make_bloch_rhs(fp, dp)

        def counted(t, R):
            calls.append(t)
            return rhs(t, R)
        return counted

    monkeypatch.setattr(cli, "make_bloch_rhs", counting_make_bloch_rhs)
    # off resonance with k > 0 no frame is static, so DOP853 steps
    report = simulate("qubit", FieldParams.elliptic(0.5, 0.4, 0.3, 0.6), 40.0,
                      dp=DampingParams(0.02, 0.05, 0.1), n_out=1001)
    integ = report["integrator"]
    assert integ["method"] == "dop853"
    assert integ["rhs_evals"] == len(calls) > 0
    assert integ["rhs_evals_per_sample"] == len(calls) / report["n_samples"]


def test_env_tolerance_override(monkeypatch):
    monkeypatch.setenv("SPINHODO_TOL", "1e-6")
    cfg = default_config()
    assert cfg.rel_tol == 1e-6
    assert cfg.abs_tol == pytest.approx(1e-8)
    monkeypatch.delenv("SPINHODO_TOL")
    assert default_config().rel_tol == IntegratorConfig().rel_tol


def test_loose_tolerance_records_population_drift(monkeypatch):
    # the populations of a loose solve leave [0, 1] by its error; the report
    # records that drift instead of refusing the run.  fig8's drive is static
    # and solved exactly, so a slow drive of the same amplitudes is stepped
    monkeypatch.setenv("SPINHODO_TOL", "1e-6")
    preset = PRESETS["fig8"]
    report = simulate("qutrit", FieldParams.circular(0.375, 0.03, 0.03), preset.duration,
                      ap=preset.aniso, n_out=preset.n_output)
    assert report["integrator"]["method"] == "dop853"
    pops = report["observed"]["populations"]
    assert -1e-6 < pops["p_minus"][0] < -1e-9


def test_main_preset_roundtrip(tmp_path, capsys):
    code = main(["preset", "fig5", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "arc_length" in out and "report.json" in out


def test_main_simulate_and_closure(tmp_path, capsys):
    code = main(["simulate", "--system", "qubit", "--mode", "circular",
                 "--h", "0.5", "--H", "0.2", "--omega", "0.2", "--theta0", "0",
                 "--periods", "1", "--analytic", "--out", str(tmp_path / "s")])
    assert code == 0
    assert "analytic vs numeric" in capsys.readouterr().out
    code = main(["closure", "--system", "qutrit", "--xmax", "2", "--ymax", "2",
                 "--Q", "1.0"])
    assert code == 0
    assert "infeasible" in capsys.readouterr().out


def test_main_reports_errors(capsys):
    code = main(["simulate", "--system", "qubit", "--mode", "linear",
                 "--h", "0.5", "--H", "0.3", "--omega", "0.7",
                 "--analytic", "--out", "/tmp/spinhodo-err"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_qutrit_natural_period_counts_d(tmp_path, capsys):
    # h = Q = 0: the d term alone swaps m = +1 and m = -1, and q returns after pi/|d|
    argv = ["simulate", "--system", "qutrit", "--h", "0", "--Q", "0", "--out", str(tmp_path)]
    fp, ap = FieldParams.circular(0.0, 0.0, 1.0), AnisotropyParams(0.0, 1.0)
    period = cli._natural_period(cli._build_parser().parse_args(argv + ["--d", "1"]), fp, ap)
    assert period == pytest.approx(math.pi, rel=1e-15)
    q0 = bloch8_from_density(initial_density_north())
    traj = resample_uniform(make_qutrit_rhs_real(fp, ap), 2001, q0, (0.0, period))
    assert np.max(np.abs(traj.states[-1] - q0)) < 1e-8
    assert np.max(np.abs(traj.states[1000] - q0)) > 1.0     # m = -1 full at half the period
    # the run gets past the period; with no transverse field the spin part of q
    # stays on the z axis, so there is no hodograph, and the run is rejected
    # before integrating, whatever its length
    for periods in ("1", "0.2"):
        assert main(argv + ["--d", "1", "--periods", periods]) == 2
        assert "nonzero transverse amplitude h" in capsys.readouterr().err
    assert main(argv + ["--d", "0"]) == 2
    assert "degenerate parameters" in capsys.readouterr().err


def test_linear_natural_period_is_the_rotating_wave_period():
    # h cos(wt) co-rotates with amplitude h/2, so one period is 2 pi/hypot(H - w, h/2);
    # under the circular 2 pi/hypot(H - w, h) it ends at the south pole
    argv = ["simulate", "--system", "qubit", "--mode", "linear", "--h", "0.02", "--H", "1",
            "--out", "unused"]
    fp = FieldParams.linear(0.02, 1.0, 1.0)
    period = cli._natural_period(cli._build_parser().parse_args(argv), fp, AnisotropyParams())
    r0 = InitialAngles().bloch()
    traj = integrate(make_bloch_rhs(fp, DampingParams()), r0, (0.0, period), default_config(),
                     n_out=2)
    assert np.linalg.norm(traj.states[-1] - r0) < 1e-3
    # at omega = 0 the linear and circular drives are the same static field
    static = cli._natural_period(cli._build_parser().parse_args(argv + ["--omega", "0"]),
                                 FieldParams.linear(0.02, 1.0, 0.0), AnisotropyParams())
    assert static == 2.0 * math.pi / math.hypot(1.0, 0.02)


def test_main_rejects_a_run_without_hodograph(tmp_path, capsys):
    # a near-zero drive leaves the qubit at the pole; the first trial step
    # used to evaluate sech past |u| = 710 and raise OverflowError
    code = main(["simulate", "--system", "qubit", "--mode", "elliptic", "--modulus", "1",
                 "--h", "1e-8", "--H", "1", "--omega", "1", "--duration", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "no hodograph" in capsys.readouterr().err


def test_main_elliptic_natural_period(tmp_path):
    # the natural period is 4K(k)/omega; K(0.6) used to loop forever
    code = main(["simulate", "--system", "qubit", "--mode", "elliptic", "--modulus", "0.6",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["duration"] == pytest.approx(4.0 * complete_k(0.6), rel=1e-15)


# ------------------------------------------------------------------ frame

# drives whose field is constant in the frame of their solve, by their
# amplitudes (h, H), frequency w and modulus k: at resonance (any k) or at
# k = 0 (any H) in the frame turned by am(wt|k), at w = 0 in the lab frame
FRAME_CONSTANT_DRIVES = {
    "resonant-circular": lambda h, H, w, k: FieldParams.circular(h, w, w),
    "resonant-elliptic": lambda h, H, w, k: FieldParams.elliptic(h, w, w, k),
    "k0-circular": lambda h, H, w, k: FieldParams.circular(h, H, w),
    "k0-elliptic": lambda h, H, w, k: FieldParams.elliptic(h, H, w, 0.0),
    "static-circular": lambda h, H, w, k: FieldParams.circular(h, H, 0.0),
    "static-linear": lambda h, H, w, k: FieldParams.linear(h, H, 0.0),
    "static-elliptic": lambda h, H, w, k: FieldParams.elliptic(h, H, 0.0, k),
}


@settings(max_examples=40, deadline=None)
@given(drive=st.sampled_from(sorted(FRAME_CONSTANT_DRIVES)), qutrit=st.booleans(),
       h=_finite(-2, 2), H=_finite(-2, 2),
       omega=st.one_of(_finite(-2, -0.05), _finite(0.05, 2)), k=_finite(0, 1),
       gamma1=_finite(0, 0.5), gamma2=_finite(0, 0.5), r_eq=_finite(-1, 1),
       theta0=_finite(0, math.pi), phi0=_finite(-7, 7), Q=_finite(-2, 2), d=_finite(-2, 2))
def test_corotating_solve_matches_the_lab_frame(drive, qutrit, h, H, omega, k, gamma1, gamma2,
                                                r_eq, theta0, phi0, Q, d):
    # a drive static in the frame of its solve is one matrix exponential, for
    # any damping and start; DOP853 in the lab frame solves the same equation.
    # The qutrit's frame is the lab frame, so only its static drives qualify
    static = drive.startswith("static")
    assume(gamma1 != gamma2 and (static or not qutrit))
    fp = FRAME_CONSTANT_DRIVES[drive](h, H, omega, k)
    cfg = default_config()
    if qutrit:
        assume(h != 0.0)
        ap = AnisotropyParams(Q, d)
        sim = cli._simulate_qutrit(fp, ap, 10.0, cfg, 201)
        lab = integrate(make_qutrit_rhs_real(fp, ap), bloch8_from_density(initial_density_north()),
                        (0.0, 10.0), cfg, n_out=201)
    else:
        dp, init = DampingParams(gamma1, gamma2, r_eq), InitialAngles(theta0, phi0)
        sim = cli._simulate_qubit(fp, dp, init, 10.0, cfg, 201)
        lab = integrate(make_bloch_rhs(fp, dp), init.bloch(), (0.0, 10.0), cfg, n_out=201)
    assert (sim["method"], sim["frame"]) == ("propagator", "lab" if static else "corotating")
    assert np.max(np.abs(sim["traj"].states - lab.states)) < 1e-8


def test_propagator_solves_a_defective_damped_generator():
    # with h = |gamma1 - gamma2|/2 the frame generator's eigenvalues coalesce
    # at -(gamma1 + gamma2)/2 and it has no eigenbasis
    fp, dp = FieldParams.circular(0.2, 0.7, 0.7), DampingParams(0.5, 0.1, 0.3)
    init = InitialAngles(1.1, 0.4)
    sim = cli._simulate_qubit(fp, dp, init, 25.0, default_config(), 501)
    assert sim["method"] == "propagator"
    ref = integrate(make_bloch_rhs(fp, dp), init.bloch(), (0.0, 25.0),
                    IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15), n_out=501)
    assert np.max(np.abs(sim["traj"].states - ref.states)) < 1e-12


@pytest.mark.parametrize("system, fp, dp, init, ap", [
    ("qubit", FieldParams.circular(0.5, 0.3, 0.7), DampingParams.uniform(0.1),
     InitialAngles(0.4, 0.2), None),
    ("qubit", FieldParams.elliptic(0.5, 0.3, 0.3, 0.6), None, None, None),
    ("qubit", FieldParams.elliptic(0.5, -0.4, -0.4, 1.0), DampingParams.uniform(0.02),
     None, None),
    ("qutrit", FieldParams.circular(0.375, 0.0, 0.0), None, None, AnisotropyParams(Q=1.0)),
], ids=["detuned", "k0.6", "k1-damped", "qutrit-static"])
def test_propagator_matches_the_closed_form_to_rounding(system, fp, dp, init, ap):
    report = simulate(system, fp, 40.0, dp=dp, init=init, ap=ap, n_out=2001, analytic=True)
    assert report["integrator"]["method"] == "propagator"
    assert report["analytic_max_deviation"] < 1e-12


@pytest.mark.parametrize("fp, frame, method", [
    (FieldParams.circular(0.5, 0.3, 0.3), "corotating", "propagator"),
    (FieldParams.elliptic(0.5, -0.3, -0.3, 1.0), "corotating", "propagator"),
    (FieldParams.elliptic(0.5, 0.3, 0.3, 0.6), "corotating", "propagator"),
    (FieldParams.circular(0.5, 0.3, 0.31), "corotating", "propagator"),   # k = 0
    (FieldParams.elliptic(0.5, 0.4, 0.3, 0.6), "lab", "dop853"),
    (FieldParams.linear(0.5, 0.3, 0.3), "lab", "dop853"),   # h2 = 0: no co-rotating field
    (FieldParams.circular(0.5, 0.0, 0.0), "lab", "propagator"),           # static already
], ids=["circular", "k1", "k0.6", "detuned", "detuned-k0.6", "linear", "static"])
def test_report_names_the_frame_of_the_solve(fp, frame, method):
    report = simulate("qubit", fp, 5.0, dp=DampingParams(0.02, 0.05, 0.1), n_out=101)
    integ = report["integrator"]
    assert (integ["frame"], integ["method"]) == (frame, method)
    # a solve with no steps reports no step statistics and no tolerances
    stepped = {"rel_tol", "abs_tol", "max_local_error", "n_steps", "n_rejected", "rhs_evals",
               "rhs_evals_per_sample"}
    assert set(integ) == {"frame", "method"} | (stepped if method == "dop853" else set())


# the qutrit's frame is the lab frame, so only its static drives qualify
@pytest.mark.parametrize("system, drive", [
    *(("qubit", drive) for drive in sorted(FRAME_CONSTANT_DRIVES)),
    *(("qutrit", drive) for drive in sorted(FRAME_CONSTANT_DRIVES) if drive.startswith("static")),
])
def test_solve_builds_no_rhs_for_a_static_drive(system, drive, monkeypatch):
    # _solve alone decides that a drive static in its frame is one matrix
    # exponential
    monkeypatch.setattr(cli, "make_bloch_rhs", _refuse)
    monkeypatch.setattr(cli, "make_qutrit_rhs_real", _refuse)
    fp = FRAME_CONSTANT_DRIVES[drive](0.4, 0.3, 0.7, 0.6)
    if system == "qutrit":
        params, y0 = AnisotropyParams(1.0, 0.2), bloch8_from_density(initial_density_north())
    else:
        params, y0 = DampingParams(0.1, 0.25, 0.4), InitialAngles(0.6, 0.2).bloch()
    traj, method, frame = cli._solve(system, fp, params, y0, 5.0, default_config(), 51)
    assert (method, frame) == ("propagator", "lab" if drive.startswith("static") else "corotating")
    assert traj.states.shape == (51, len(y0))


def test_preset_reports_name_the_frame(fig5_run, fig8_run):
    assert fig5_run[1]["integrator"] == {"method": "propagator", "frame": "corotating"}
    assert fig8_run[1]["integrator"] == {"method": "propagator", "frame": "lab"}


# ------------------------------------------------------- simulate's flags

def _simulate_argv(out, *flags):
    return ["simulate", "--system", "qubit", *flags, "--out", str(out)]


def test_main_static_elliptic_drive_has_the_static_period(tmp_path):
    # at omega = 0 the elliptic drive is the static (h, 0, H); its period was
    # 4 K(k)/|omega|, a ZeroDivisionError
    code = main(_simulate_argv(tmp_path, "--mode", "elliptic", "--modulus", "0.5",
                               "--omega", "0", "--h", "0.5", "--H", "0.2"))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["duration"] == 2.0 * math.pi / math.hypot(0.2, 0.5)


def test_main_impulse_drive_asks_for_a_duration(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_simulate_argv(out, "--mode", "elliptic", "--modulus", "1")) == 2
    err = capsys.readouterr().err
    assert "--modulus" in err and "give --duration" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    # solved exactly, but the jets of the state overflow
    (["--system", "qubit", "--h", "1e200"], "a time derivative of the state overflows"),
    # the rates times the span are past what float64 resolves
    (["--system", "qubit", "--gamma1", "1e300", "--duration", "10"],
     "float64 cannot resolve the solution"),
    # DOP853: the error norm of the initial derivative overflows
    (["--system", "qutrit", "--h", "1e200", "--Q", "1"], "overflows"),
    (["--system", "qubit", "--h", "1e-10", "--H", "1e300", "--duration", "1"],
     "float64 cannot resolve the solution"),
    # a lab-frame drive of 1e300 over a span of 1 is refused before DOP853
    # steps (test_integrator.py steps it at the integrator's own guard)
    (["--system", "qubit", "--mode", "elliptic", "--modulus", "0.5", "--h", "1e-10",
      "--H", "1e300", "--omega", "0.3", "--duration", "1"], "amplitude times the span, 1e+300"),
], ids=["h", "gamma1", "qutrit-h", "trial-H", "trial-H-stepped"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_rejects_rates_that_overflow_the_error_norm(argv, message, tmp_path, capsys):
    # the startup step of DOP853 was 0 and the trial stage divided by it;
    # then numpy warned of the overflow ahead of the error line
    code = main(["simulate", *argv, "--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_refuses_a_stepped_solve_past_its_budget(tmp_path, capsys, monkeypatch):
    # off resonance with k > 0 DOP853 steps in the lab frame, about 2 steps
    # per unit of amplitude times span: here about 3e50 steps, which never
    # ended; a patched integrate makes a regression fail instead of hang
    monkeypatch.setattr(cli, "integrate", _refuse)
    out = tmp_path / "run"
    assert main(_simulate_argv(out, "--mode", "elliptic", "--modulus", "0.5", "--h", "1e49")) == 2
    err = capsys.readouterr().err
    assert "amplitude times the span, 1.35e+50, is over 1e+06" in err
    assert not out.exists()


@pytest.mark.parametrize("h, code", [("1e49", 0), ("1e60", 2)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_rejects_rates_that_overflow_the_geometry(h, code, tmp_path, capsys):
    # at 1e60 the jets are finite, but torsion's products are the rate to
    # the sixth power: numpy warned of the overflow, and the run wrote its
    # artifacts
    out = tmp_path / "run"
    assert main(_simulate_argv(out, "--mode", "linear", "--h", h)) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "rate above 1e+50, where its curvature and torsion overflow" in err
        assert not out.exists()
    else:
        assert err == "" and (out / "geometry.csv").is_file()


@pytest.mark.parametrize("flag", ["--h", "--H", "--omega", "--modulus", "--gamma1", "--gamma2",
                                  "--req", "--Q", "--d", "--theta0", "--phi0"])
def test_main_simulate_rejects_a_non_finite_number(flag, tmp_path, capsys):
    # --h nan was reported as h1, the FieldParams field
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            main(_simulate_argv(tmp_path / "run", f"{flag}={value}"))
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_main_duration_run_gets_one_period_grid(tmp_path):
    # n_out came from --periods even with --duration: 6,001 samples here
    assert main(_simulate_argv(tmp_path, "--duration", "5", "--periods", "3")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["duration"] == 5.0 and report["n_samples"] == 2001
