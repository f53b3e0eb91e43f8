"""Command-line front end: formats, reproducibility, error contracts."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

import maserline.cli
import maserline.steady
from maserline import (
    ExponentialTau,
    FixedTau,
    MaserParams,
    SpectralError,
    TrigAverages,
    build_sideband_generator,
    build_uniform_lindblad,
    correlate,
    initial_sideband,
    linewidth_components,
    linewidth_from_slope,
    spectral_decomposition,
    spectrum_and_fwhm,
    steady_state,
    uniform_linewidth,
)
from maserline.cli import main
from maserline.linewidth import mcgowan_weights, pump_weights
from maserline.regression import coherence_window


def run(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return meta, header, rows


def test_scan_theta_columns_and_consistency(tmp_path):
    code, out = run(
        tmp_path,
        ["scan-theta", "--rate", "50", "--nth", "0.01", "--min", "0.5", "--max", "2.8", "--steps", "6"],
    )
    assert code == 0
    meta, header, rows = read_csv(out)
    assert header[:11] == [
        "theta", "g_tau", "n_mean", "D_main", "D_thermal", "D_cos", "D_sin",
        "D_scully", "D_mcgowan", "D_slope", "st_ratio",
    ]
    assert len(rows) == 6
    for row in rows:
        assert row["status"] == "ok"
        # theta column equals sqrt(r/kappa) g_tau exactly
        assert float(row["theta"]) == pytest.approx(math.sqrt(50.0) * float(row["g_tau"]), rel=1e-15)
        # component split reassembles the total
        total = float(row["D_thermal"]) + float(row["D_cos"]) + float(row["D_sin"])
        assert float(row["D_main"]) == pytest.approx(total, rel=1e-12)
        assert float(row["D_main"]) == pytest.approx(float(row["D_slope"]), rel=1e-8)
        for col in header[:-1]:
            assert math.isfinite(float(row[col]))


def test_scan_theta_single_step_thermal(tmp_path):
    code, out = run(
        tmp_path,
        ["scan-theta", "--rate", "0", "--nth", "0.1", "--g-tau", "0.5",
         "--min", "1.0", "--max", "1.0", "--steps", "1"],
    )
    assert code == 0
    _, _, rows = read_csv(out)
    assert float(rows[0]["D_main"]) == pytest.approx(1.0, rel=1e-10)
    assert float(rows[0]["D_slope"]) == pytest.approx(1.0, rel=1e-10)


def test_scan_theta_vacuum_sentinel(tmp_path):
    code, out = run(
        tmp_path,
        ["scan-theta", "--rate", "0", "--nth", "0", "--g-tau", "0.5",
         "--min", "1.0", "--max", "1.0", "--steps", "1"],
    )
    assert code == 0
    _, _, rows = read_csv(out)
    assert rows[0]["status"] == "vacuum"
    assert rows[0]["D_main"] == ""  # empty cell, never NaN


def test_byte_identical_reruns(tmp_path):
    argv = ["scan-theta", "--rate", "50", "--nth", "0.01", "--min", "0.6", "--max", "2.0", "--steps", "4"]
    _, first = run(tmp_path, argv, "a.csv")
    _, second = run(tmp_path, argv, "b.csv")
    assert first.read_bytes() == second.read_bytes()


def test_json_format_round_trip(tmp_path):
    code, out = run(
        tmp_path,
        ["scan-theta", "--rate", "50", "--nth", "0.01", "--min", "0.8", "--max", "1.6",
         "--steps", "3", "--format", "json"],
        "out.json",
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["config"]["rate"] == 50
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["status"] == "ok"


@pytest.mark.parametrize("argv, statuses", [
    (["scan-theta", "--rate", "50", "--nth", "0.01", "--min", "0.6", "--max", "2.0", "--steps", "3"], {"ok"}),
    (["scan-theta", "--rate", "0", "--nth", "0", "--g-tau", "0.5", "--steps", "2"], {"vacuum"}),
    (["fock-resolved", "--rate", "20", "--g-tau", "0.7", "--g-tau", "0.9", "--trunc", "30"], {"ok"}),
    (["spectrum", "--rate", "50", "--nth", "0.01", "--g-tau", "0.35"], {"ok"}),
    (["uniform-convergence", "--dist", "exp", "--min", "0.3", "--max", "1.2", "--steps", "4"],
     {"below-threshold", "ok"}),
])
def test_csv_and_json_carry_the_same_table(tmp_path, argv, statuses):
    """JSON rows list the CSV columns in header order, minus the empty cells,
    and every cell holds the same value in both formats."""
    assert run(tmp_path, argv, "out.csv")[0] == 0
    assert run(tmp_path, argv + ["--format", "json"], "out.json")[0] == 0
    meta, header, csv_rows = read_csv(tmp_path / "out.csv")
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["metadata"] == {**meta, "config": {**meta["config"], "format": "json"}}
    assert len(payload["rows"]) == len(csv_rows)
    assert {row["status"] for row in csv_rows} == statuses
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        assert list(json_row) == [col for col in header if csv_row[col] != ""]
        for col, value in json_row.items():
            if isinstance(value, str):
                assert csv_row[col] == value
            else:
                assert float(csv_row[col]) == value, col


def _nan_scully(*args):
    return math.nan


def _nan_correlate(decomp, t_grid):
    g_t = correlate(decomp, t_grid)
    g_t[-1] = math.nan
    return g_t


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, name, stand_in, column", [
    (["scan-theta", "--rate", "50", "--nth", "0.01", "--steps", "2"],
     "linewidth_scully", _nan_scully, "D_scully"),
    (["spectrum", "--rate", "50", "--nth", "0.01", "--g-tau", "0.35"],
     "correlate", _nan_correlate, "value"),
])
def test_non_finite_cell_is_refused_before_any_output(tmp_path, capsys, monkeypatch,
                                                       fmt, argv, name, stand_in, column):
    monkeypatch.setattr(maserline.cli, name, stand_in)
    out = tmp_path / f"out.{fmt}"
    for destination in (["--out", str(out)], []):
        assert main(argv + ["--format", fmt] + destination) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "MaserlineError"
        assert f"{column}=nan" in error["message"]
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rate": 50.0, "nth": 0.01, "min": 0.8, "max": 1.6, "steps": 3}))
    code, out = run(tmp_path, ["scan-theta", "--config", str(cfg), "--steps", "2"])
    assert code == 0
    meta, _, rows = read_csv(out)
    assert meta["config"]["steps"] == 2  # flag wins
    assert meta["config"]["rate"] == 50.0
    assert len(rows) == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rte": 50.0}))
    assert main(["scan-theta", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


# (field, value): null only where the field has a non-null default
NON_NUMERIC = [
    (field, value)
    for field in ("kappa", "nth", "rate", "g_tau", "min", "max", "steps", "trunc", "nodes", "jobs")
    for value in ("50", [1], True, *([None] if field in ("kappa", "nth", "rate", "steps", "jobs") else []))
]


@pytest.mark.parametrize("field, value", NON_NUMERIC, ids=[f"{f}={json.dumps(v)}" for f, v in NON_NUMERIC])
def test_non_numeric_config_field_is_a_config_error(tmp_path, capsys, field, value):
    """A config value of the wrong type is a typed error, not a TypeError
    traceback from the arithmetic that reads it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rate": 50.0, "steps": 1, field: value}))
    assert main(["scan-theta", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "ConfigError"
    assert field in err["message"]


@pytest.mark.parametrize("field", ["steps", "trunc", "nodes", "jobs"])
def test_integer_config_field_rejects_a_float(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rate": 50.0, "steps": 1, field: 2.5}))
    assert main(["scan-theta", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert field in err["message"]


# (command, base config, field, value): argparse checks only the flag route,
# so each of these reached the arithmetic or the writer unchecked
BAD_FILE_VALUES = [
    ("uniform-convergence", {"dist": "exp", "steps": 2}, "format", "xml"),
    ("uniform-convergence", {"dist": "exp", "steps": 2}, "orders", 5),
    ("uniform-convergence", {"dist": "exp", "steps": 2}, "out", 7.5),
    ("uniform-convergence", {"dist": "exp", "steps": 2}, "out", ["x.csv"]),
    ("spectrum", {"rate": 0.0, "nth": 0.2, "g_tau": 0.5}, "dist", "gauss"),
]


@pytest.mark.parametrize("command, base, field, value", BAD_FILE_VALUES,
                         ids=[f"{c}-{f}={json.dumps(v)}" for c, _, f, v in BAD_FILE_VALUES])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, monkeypatch, command, base, field, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**base, field: value}))
    assert main([command, "--config", "cfg.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "ConfigError"
    assert field in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("content", ["[]", "5"])
def test_config_file_must_hold_an_object(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["scan-theta", "--rate", "50", "--steps", "1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("argv, config", [
    (["--jobs", "0"], {}),
    (["--jobs", "-4"], {}),
    ([], {"jobs": 0}),
], ids=["flag-0", "flag-minus-4", "file-0"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, argv, config):
    """Fewer than one worker used to run serially and echo the bad value."""
    argv = ["scan-theta", "--rate", "50", "--steps", "2"] + argv
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "ConfigError"
    assert "jobs" in err["message"]


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    argv = ["spectrum", "--rate", "0", "--nth", "0.2", "--g-tau", "0.5", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "ConfigError"
    assert str(out) in err["message"]


def test_fock_resolved_reads_g_tau_from_the_config_file(tmp_path):
    """Without a --g-tau flag the one curve comes from the file's g_tau."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g_tau": 0.3}))
    base = ["fock-resolved", "--rate", "50", "--nth", "0.01"]
    _, from_file = run(tmp_path, base + ["--config", str(cfg)], "file.csv")
    _, from_flag = run(tmp_path, base + ["--g-tau", "0.3"], "flag.csv")
    file_meta, _, file_rows = read_csv(from_file)
    flag_meta, _, flag_rows = read_csv(from_flag)
    assert file_rows == flag_rows
    assert (file_meta["config"]["g_tau"], flag_meta["config"]["g_tau"]) == (0.3, None)


@pytest.mark.parametrize("argv, field", [
    (["scan-theta", "--rate", "50", "--steps", "3", "--min", "0", "--max", "inf"], "max"),
    (["scan-theta", "--rate", "50", "--steps", "1", "--min", "nan"], "min"),
    (["scan-theta", "--rate", "50", "--steps", "3", "--min=-inf"], "min"),
    (["uniform-convergence", "--dist", "exp", "--steps", "3", "--max", "inf"], "max"),
    (["uniform-convergence", "--dist", "exp", "--steps", "1", "--min", "nan"], "min"),
])
def test_scan_bounds_must_be_finite(capsys, argv, field):
    """A non-finite bound is refused before the scan grid is built: one
    JSON line on stderr, no numpy warning, no output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"{field} must be finite")


@pytest.mark.parametrize("argv, error", [
    (["spectrum", "--dist", "exp", "--rate", "50", "--g-tau", "1e155"], "ValueError"),
    (["spectrum", "--dist", "exp", "--rate", "1e300", "--g-tau", "1e5"], "ValueError"),
    (["uniform-convergence", "--dist", "exp", "--steps", "2", "--g-tau", "1e155"], "ValueError"),
    (["spectrum", "--dist", "exp", "--rate", "50", "--g-tau", "1e-170"], "VacuumStateError"),
    (["spectrum", "--rate", "50", "--g-tau", "1e155"], "ValueError"),
    (["fock-resolved", "--rate", "50", "--g-tau", "1e300"], "ValueError"),
])
def test_extreme_pump_angles_are_refused(capsys, argv, error):
    """A pump angle whose square leaves the float range, or underflows to
    a vacuum, ends in one JSON line on stderr: no traceback, no numpy
    warning, no output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == error


# (argv, config-file text, message start): every float field is finite and
# every int field at least 1, from a flag or the file
OUT_OF_RANGE = [
    (["scan-theta", "--rate", "nan", "--steps", "1"], None, "rate must be finite"),
    (["spectrum", "--rate", "50", "--nth", "inf", "--g-tau", "0.3"], None, "nth must be finite"),
    (["fock-resolved", "--rate", "50", "--g-tau", "nan"], None, "g_tau must be finite"),
    (["fock-resolved", "--rate", "50", "--g-tau", "0.3", "--g-tau=-inf"], None, "g_tau must be finite"),
    (["uniform-convergence", "--dist", "exp", "--steps", "2", "--g-tau", "nan"], None, "g_tau must be finite"),
    (["spectrum", "--rate", "50", "--g-tau", "0.3"], '{"nth": Infinity}', "nth must be finite"),
    (["scan-theta", "--rate", "50", "--steps", "1", "--trunc", "0"], None, "trunc must be at least 1"),
    (["scan-theta", "--rate", "50", "--steps", "1", "--trunc", "-3"], None, "trunc must be at least 1"),
    (["spectrum", "--rate", "50", "--dist", "exp", "--g-tau", "0.3"], '{"nodes": 0}', "nodes must be at least 1"),
    (["scan-theta", "--rate", "50"], '{"steps": 0}', "steps must be at least 1"),
]


@pytest.mark.parametrize("argv, config, message", OUT_OF_RANGE,
                         ids=[f"{a[0]}-{m.split()[0]}-{i}" for i, (a, _, m) in enumerate(OUT_OF_RANGE)])
def test_config_values_out_of_range_are_config_errors(tmp_path, capsys, argv, config, message):
    """Each of these reached MaserParams or the truncation as an untyped
    ValueError; the range rule names the field before any arithmetic."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(message)


def test_scan_theta_rejects_zero_g_tau_at_zero_rate(capsys):
    """An explicit g*tau of 0 reaches parameter validation instead of
    being replaced by the default of 1."""
    code = main(["scan-theta", "--rate", "0", "--g-tau", "0", "--steps", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_scan_requires_fixed_distribution(capsys):
    assert main(["scan-theta", "--dist", "exp", "--rate", "50"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


def test_fock_resolved_two_parameter_sets(tmp_path):
    g1 = 2.1 * math.pi / math.sqrt(200.0)
    g2 = 2.2 * math.pi / math.sqrt(200.0)
    code, out = run(
        tmp_path,
        ["fock-resolved", "--rate", "200", "--nth", "0.1",
         "--g-tau", f"{g1:.17g}", "--g-tau", f"{g2:.17g}"],
    )
    assert code == 0
    _, _, rows = read_csv(out)
    blocks = {row["g_tau"] for row in rows}
    assert len(blocks) == 2
    for g_tau in blocks:
        block = [r for r in rows if r["g_tau"] == g_tau]
        total = sum(float(r["p_n"]) for r in block)
        assert total == pytest.approx(1.0, abs=1e-12)
        norms = [float(r["w_main_norm"]) for r in block]
        assert max(norms) == pytest.approx(1.0, rel=1e-15)


def test_fock_resolved_needs_g_tau(capsys):
    assert main(["fock-resolved", "--rate", "200", "--nth", "0.1"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


def test_fock_resolved_cells_are_the_primitives(tmp_path):
    """Each block is steady_state, pump_weights and mcgowan_weights of its
    g*tau, cell for cell, on the requested truncation and kappa."""
    g_taus = (0.5, 1.1)
    argv = ["fock-resolved", "--rate", "8", "--nth", "0.1", "--kappa", "2", "--trunc", "30", "--format", "json"]
    code, out = run(tmp_path, argv + [arg for g in g_taus for arg in ("--g-tau", str(g))], "out.json")
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2 * 31
    for g_tau, block in zip(g_taus, (rows[:31], rows[31:])):
        params = MaserParams(kappa=2.0, n_th=0.1, r=8.0, g=g_tau * 2.0, tau_dist=FixedTau(0.5))
        stats = steady_state(params, 30)
        cos_w, sin_w = pump_weights(params, 30)
        assert [row["g_tau"] for row in block] == [g_tau] * 31
        assert [row["n"] for row in block] == list(range(31))
        assert [row["p_n"] for row in block] == stats.p.tolist()
        assert [row["w_main"] for row in block] == (cos_w + sin_w).tolist()
        assert [row["w_mcgowan"] for row in block] == mcgowan_weights(params, 30).tolist()


def test_spectrum_sections_and_header(tmp_path):
    code, out = run(
        tmp_path,
        ["spectrum", "--rate", "0", "--nth", "0.2", "--g-tau", "0.5"],
    )
    assert code == 0
    meta, _, rows = read_csv(out)
    assert meta["D_eigen"] == pytest.approx(float(meta["D_slope"]), rel=1e-8)
    time_rows = [r for r in rows if r["section"] == "time"]
    freq_rows = [r for r in rows if r["section"] == "frequency"]
    assert time_rows and freq_rows
    # pure thermal decay: g(t) = <n> exp(-kappa t / 2)
    n_mean = float(meta["n_mean"])
    for r in time_rows[::32]:
        t, g = float(r["x"]), float(r["value"])
        assert g == pytest.approx(n_mean * math.exp(-0.5 * t), abs=1e-9 * n_mean)
    assert float(meta["FWHM"]) == pytest.approx(1.0, rel=1e-6)


def test_spectrum_fwhm_near_linewidth_at_scan_point(tmp_path):
    g_tau = 2.5 * math.pi / math.sqrt(50.0)
    code, out = run(tmp_path, ["spectrum", "--rate", "50", "--nth", "0.01", "--g-tau", f"{g_tau:.17g}"])
    assert code == 0
    meta, _, _ = read_csv(out)
    assert abs(meta["FWHM"] - meta["D_eigen"]) / meta["D_eigen"] < 0.15


def test_spectrum_nodes_builds_one_consistent_model(tmp_path):
    """With --nodes the statistics come from the same node rule as the
    generator, so the slope equals the exact route of that model."""
    code, out = run(
        tmp_path,
        ["spectrum", "--rate", "50", "--dist", "exp", "--g-tau", "0.3", "--nodes", "8"],
    )
    assert code == 0
    meta, _, _ = read_csv(out)
    params = MaserParams(kappa=1.0, n_th=0.0, r=50.0, g=0.3, tau_dist=ExponentialTau(1.0))
    averages = TrigAverages.for_params(params, 8)
    stats = steady_state(params, None, averages)
    exact = linewidth_components(params, stats, averages).total
    assert meta["D_slope"] == pytest.approx(exact, rel=1e-8)


def test_spectrum_of_a_vacuum_is_a_vacuum_state_error(capsys):
    """The automatic basis of a vacuum is one level, too small for a
    sideband generator; the refusal names the vacuum."""
    assert main(["spectrum", "--rate", "0", "--nth", "0", "--g-tau", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "VacuumStateError"


def test_spectrum_nodes_need_an_exponential_tau(capsys):
    """Fixed tau is one node whatever the count: --nodes selects no rule
    there and is refused instead of echoed into the config."""
    argv = ["spectrum", "--rate", "50", "--nth", "0.01", "--g-tau", "0.35", "--nodes", "8"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ValueError"


@pytest.mark.parametrize("nodes", ["0", "-2"])
def test_spectrum_rejects_nonpositive_nodes(capsys, nodes):
    argv = ["spectrum", "--rate", "50", "--dist", "exp", "--g-tau", "0.3", "--nodes", nodes]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("extra, calls", [([], 1), (["--dist", "exp", "--nodes", "16"], 2)],
                         ids=["default-family", "nodes"])
def test_spectrum_evaluates_the_recurrence_once_per_family(tmp_path, monkeypatch, extra, calls):
    """The truncation search evaluates the recurrence with the default
    family; only a --nodes rule needs it again on the chosen basis."""
    seen = []
    original = maserline.steady.recurrence_ratios

    def counted(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(maserline.steady, "recurrence_ratios", counted)
    code, _ = run(tmp_path, ["spectrum", "--rate", "50", "--nth", "0.01", "--g-tau", "0.35"] + extra)
    assert code == 0
    assert len(seen) == calls


def _full_basis_spectrum(params, averages):
    """The spectrum command's quantities from the library on the whole
    truncation: D_slope, D_eigen, FWHM, g(t) and S(omega)."""
    stats = steady_state(params, None, averages)
    gen = build_sideband_generator(params, stats.N, averages)
    v0 = initial_sideband(stats)
    d_slope = linewidth_from_slope(gen, v0)
    decomp = spectral_decomposition(gen, v0)
    t_grid = np.linspace(0.0, 8.0 / d_slope, 257)
    omega = np.linspace(-4.0 * decomp.linewidth, 4.0 * decomp.linewidth, 513)
    s_omega, fwhm = spectrum_and_fwhm(decomp, omega)
    return {
        "D_slope": d_slope, "D_eigen": decomp.linewidth, "FWHM": fwhm,
        "time": correlate(decomp, t_grid), "frequency": s_omega,
    }


def _spectrum_output(tmp_path, argv):
    code, out = run(tmp_path, ["spectrum", *argv])
    assert code == 0
    meta, _, rows = read_csv(out)
    sections = {name: np.array([float(r["value"]) for r in rows if r["section"] == name])
                for name in ("time", "frequency")}
    return meta, sections


def _fixed_point(r, n_th):
    """Spectrum flags of fixed tau at theta = 2.5 pi."""
    return ["--rate", str(r), "--nth", str(n_th), "--g-tau", repr(2.5 * math.pi / math.sqrt(r))]


def _params_of(argv):
    flags = dict(zip(argv[::2], argv[1::2]))
    dist = ExponentialTau(1.0) if flags.get("--dist") == "exp" else FixedTau(1.0)
    params = MaserParams(1.0, float(flags.get("--nth", 0.0)), float(flags["--rate"]), float(flags["--g-tau"]), dist)
    nodes = int(flags["--nodes"]) if "--nodes" in flags else None
    return params, TrigAverages.for_params(params, nodes)


# r=500 at n_th = 0.01 and 1.0 have their own tests below
WINDOW_POINTS = [
    *[(f"fixed-r{r}-nth{n_th}", _fixed_point(r, n_th)) for r in (50, 200) for n_th in (0.01, 0.1, 1.0)],
    ("fixed-r500-nth0.1", _fixed_point(500, 0.1)),
    ("exp-r50", ["--rate", "50", "--dist", "exp", "--g-tau", "0.3"]),
    ("exp-r50-nodes16", ["--rate", "50", "--dist", "exp", "--g-tau", "0.3", "--nodes", "16"]),
]


@pytest.mark.parametrize("argv", [p[1] for p in WINDOW_POINTS], ids=[p[0] for p in WINDOW_POINTS])
def test_spectrum_window_matches_the_full_basis(tmp_path, argv):
    """The command solves the dynamics on the coherence window; every
    output agrees with the library on the whole truncation, and D_slope,
    which stays on the whole truncation, is the same double."""
    meta, sections = _spectrum_output(tmp_path, argv)
    full = _full_basis_spectrum(*_params_of(argv))
    assert meta["D_slope"] == full["D_slope"]
    for key in ("D_eigen", "FWHM"):
        assert meta[key] == pytest.approx(full[key], rel=1e-10, abs=0)
    for name in ("time", "frequency"):
        np.testing.assert_allclose(sections[name], full[name], rtol=1e-10, atol=0)


def test_spectrum_window_where_the_full_basis_carries_rounding(tmp_path):
    """At r=500, n_th=1 the whole truncation (N = 2000, 1877 nonzero
    components) carries rounding: its D_eigen is 6.4e-11 from the exact
    route and its g(t) 2.5e-10 from the window's.  Windows from 16 to 60
    decades agree with each other to 4e-11, and the window's D_eigen is
    within 3e-12 of the exact route."""
    argv = _fixed_point(500, 1.0)
    meta, sections = _spectrum_output(tmp_path, argv)
    params, averages = _params_of(argv)
    exact = linewidth_components(params, steady_state(params, None, averages), averages).total
    assert meta["D_eigen"] == pytest.approx(exact, rel=1e-11, abs=0)
    full = _full_basis_spectrum(params, averages)
    assert meta["D_slope"] == full["D_slope"]
    for name in ("time", "frequency"):
        np.testing.assert_allclose(sections[name], full[name], rtol=1e-9, atol=0)


def test_spectrum_whole_basis_window_is_the_full_path(tmp_path, monkeypatch):
    """Where v0 stays above 1e-20 of its peak on every component, the
    window is the generator itself and the output is unchanged."""
    argv = ["--rate", "0", "--nth", "0.2", "--g-tau", "0.5", "--trunc", "20"]
    windows = []
    window = maserline.cli.coherence_window

    def recorded(v0):
        windows.append((window(v0), v0.size))
        return windows[-1][0]

    monkeypatch.setattr(maserline.cli, "coherence_window", recorded)
    _, windowed = run(tmp_path, ["spectrum", *argv], "windowed.csv")
    assert windows == [((0, 20), 20)]
    monkeypatch.setattr(maserline.cli, "coherence_window", lambda v0: (0, v0.size))
    _, full = run(tmp_path, ["spectrum", *argv], "full.csv")
    assert windowed.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("argv", [
    _fixed_point(500, 0.01),
    ["--rate", "1000", "--nth", "0.01", "--g-tau", "0.2483"],
    ["--rate", "2000", "--g-tau", repr(math.pi / math.sqrt(2000.0))],
], ids=["r500", "r1000", "r2000"])
def test_spectrum_runs_where_the_full_basis_eigen_route_refuses(tmp_path, argv):
    """On the whole truncation the coherence amplitudes span more than
    double precision holds and the eigen route refuses; on the window
    they do not."""
    params, averages = _params_of(argv)
    stats = steady_state(params, None, averages)
    with pytest.raises(SpectralError):
        spectral_decomposition(build_sideband_generator(params, stats.N, averages), initial_sideband(stats))
    meta, _ = _spectrum_output(tmp_path, argv)
    assert abs(meta["D_eigen"] / meta["D_slope"] - 1.0) <= 1e-8


def test_every_windowed_spectrum_decomposition_decays():
    """The eigen route of the spectrum command accepts every point of this
    grid on its coherence window, and every mode decays, so g(t) is the
    eigen expansion throughout: fixed tau, exponential tau in closed form
    and with 16 nodes, r in {50, 200, 1000}, n_th in {0, 0.01, 1} and
    theta from 0.5 pi to 3.5 pi (189 points)."""
    dists = (["--dist", "fixed"], ["--dist", "exp"], ["--dist", "exp", "--nodes", "16"])
    thetas = [k / 2 for k in range(1, 8)]
    for dist, r, n_th, theta in itertools.product(dists, (50, 200, 1000), (0, 0.01, 1), thetas):
        argv = ["--rate", str(r), "--nth", str(n_th), "--g-tau", repr(theta * math.pi / math.sqrt(r)), *dist]
        params, averages = _params_of(argv)
        stats = steady_state(params, None, averages)
        v0 = initial_sideband(stats)
        lo, hi = coherence_window(v0)
        gen = build_sideband_generator(params, stats.N, averages).window(lo, hi)
        assert spectral_decomposition(gen, v0[lo:hi]).mu.real.min() > 0.0, argv


def test_uniform_convergence_table(tmp_path):
    # the grid must reach theta_bar = 3 where the order hierarchy of the
    # max error is established (at 1.6..2.0 alone, order 3 transiently
    # undershoots order 1)
    code, out = run(
        tmp_path,
        ["uniform-convergence", "--dist", "exp", "--min", "0.4", "--max", "3.0", "--steps", "5"],
    )
    assert code == 0
    meta, header, rows = read_csv(out)
    assert meta["threshold_theta_bar"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert header == ["theta_bar", "n_mean", "D_exact", "D_exp_scully",
                      "D_order_1", "D_order_3", "D_order_7", "status"]
    below = [r for r in rows if float(r["theta_bar"]) < 1.0 / math.sqrt(2.0)]
    assert below and all(r["status"] == "below-threshold" for r in below)
    above = [r for r in rows if float(r["theta_bar"]) >= 1.0 / math.sqrt(2.0)]
    assert above and all(r["status"] == "ok" for r in above)
    # monotone improvement of the order columns in max error over the scan
    errs = {}
    for order in (1, 3, 7):
        errs[order] = max(
            abs(float(r[f"D_order_{order}"]) - float(r["D_exact"])) / float(r["D_exact"])
            for r in rows
        )
    assert errs[1] > errs[3] > errs[7]
    # way above threshold the closed approximation tracks the exact line
    top = rows[-1]
    assert abs(float(top["D_exp_scully"]) - float(top["D_exact"])) / float(top["D_exact"]) < 0.20


def test_uniform_convergence_rejects_fixed(capsys):
    assert main(["uniform-convergence", "--dist", "fixed"]) == 2
    capsys.readouterr()


def test_uniform_convergence_rejects_repeated_sine_order(capsys):
    """Each order pair owns the column D_order_<sine order>; a repeat would
    write two columns of one name."""
    argv = ["uniform-convergence", "--dist", "exp", "--steps", "2", "--orders", "1,0;1,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"


def test_uniform_convergence_rejects_nodes(capsys):
    """The command always uses the closed exponential averages; a node
    count would be echoed into the config without changing a cell."""
    argv = ["uniform-convergence", "--dist", "exp", "--steps", "2", "--nodes", "8"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"


SCAN = ["scan-theta", "--rate", "50", "--steps", "1"]
FOCK = ["fock-resolved", "--rate", "50", "--nth", "0.01", "--g-tau", "0.3"]
SPECTRUM = ["spectrum", "--rate", "0", "--nth", "0.2", "--g-tau", "0.5"]
UNIFORM = ["uniform-convergence", "--dist", "exp", "--steps", "2"]
# (id, argv, config-file fields): each sets one field its command never reads
UNREAD_OPTIONS = [
    ("scan-theta-nodes", SCAN + ["--nodes", "8"], {}),
    ("scan-theta-orders", SCAN + ["--orders", "1,0"], {}),
    ("scan-theta-g-tau-at-rate", SCAN + ["--g-tau", "0.3"], {}),
    ("scan-theta-scan-key", SCAN, {"scan": "theta"}),
    ("scan-theta--dist", SCAN + ["--dist", "exp"], {}),
    *[(f"fock-resolved{flag}", FOCK + [flag, value], {}) for flag, value in
      (("--nodes", "8"), ("--orders", "1,0"), ("--min", "0.1"), ("--max", "1"), ("--steps", "3"), ("--jobs", "2"),
       ("--dist", "exp"))],
    *[(f"spectrum{flag}", SPECTRUM + [flag, value], {}) for flag, value in
      (("--orders", "1,0"), ("--min", "0.1"), ("--max", "1"), ("--steps", "3"), ("--jobs", "2"))],
    ("uniform-convergence-rate", UNIFORM + ["--rate", "50"], {}),
    ("uniform-convergence--nth", UNIFORM + ["--nth", "0.5"], {}),
    ("uniform-convergence-nth-key", UNIFORM, {"nth": 0.5}),
]


@pytest.mark.parametrize("argv, config", [c[1:] for c in UNREAD_OPTIONS], ids=[c[0] for c in UNREAD_OPTIONS])
def test_commands_reject_options_they_do_not_read(tmp_path, capsys, argv, config):
    """A value a command never reads would be echoed into the output
    config without changing a cell; it is refused before any output."""
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"


KAPPA_COMMANDS = {
    "scan-theta": ["scan-theta", "--rate", "50", "--steps", "1"],
    "fock-resolved": ["fock-resolved", "--rate", "50", "--g-tau", "0.3"],
    "spectrum": ["spectrum", "--rate", "50", "--g-tau", "0.5"],
    "uniform-convergence": ["uniform-convergence", "--dist", "exp", "--steps", "2"],
}


@pytest.mark.parametrize("kappa", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("command", KAPPA_COMMANDS)
def test_commands_reject_a_bad_kappa(capsys, command, kappa):
    """Every rate is divided by kappa; a bad one is a typed config error
    before any arithmetic, not a ZeroDivisionError traceback."""
    assert main(KAPPA_COMMANDS[command] + [f"--kappa={kappa}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "ConfigError"
    assert "kappa" in err["message"]


def test_uniform_convergence_rejects_zero_g_tau(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["uniform-convergence", "--dist", "exp", "--steps", "2", "--g-tau", "0"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert "g_tau" in err["message"]


def test_uniform_convergence_refuses_an_overflowing_rate(capsys):
    """At g_tau = 1e-200 the scan's rate (theta_bar / g_tau)^2 kappa
    overflows; the scan is refused before its first row, without numpy's
    overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["uniform-convergence", "--dist", "exp", "--steps", "2", "--g-tau", "1e-200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert "g_tau" in err["message"]


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_uniform_convergence_cells_are_the_uniform_linewidth(tmp_path, kappa):
    """Each D_order_<k> cell is uniform_linewidth of the pair's family on
    the exact model's truncation, exactly."""
    argv = ["uniform-convergence", "--dist", "exp", "--orders", "1,0;5,4", "--min", "0.5",
            "--max", "2.5", "--steps", "4", "--format", "json", "--kappa", repr(kappa)]
    code, out = run(tmp_path, argv, "out.json")
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["status"] for row in rows] == ["below-threshold", "ok", "ok", "ok"]
    for row in rows:
        theta_bar = np.float64(row["theta_bar"])
        params = MaserParams(kappa=kappa, n_th=0.0, r=(theta_bar / 0.3) ** 2 * kappa, g=0.3 * kappa,
                             tau_dist=ExponentialTau(1.0 / kappa))
        N = steady_state(params).N
        for pair in ((1, 0), (5, 4)):
            assert row[f"D_order_{pair[0]}"] == uniform_linewidth(params, build_uniform_lindblad(params, pair), N)


def test_kappa_units_propagate(tmp_path):
    # same dimensionless point at kappa = 2: every rate column doubles
    base_argv = ["scan-theta", "--rate", "50", "--nth", "0.01",
                 "--min", "1.5", "--max", "1.5", "--steps", "1"]
    _, base = run(tmp_path, base_argv, "k1.csv")
    _, scaled = run(tmp_path, base_argv[:2] + ["100"] + base_argv[3:] + ["--kappa", "2"], "k2.csv")
    _, _, rows1 = read_csv(base)
    _, _, rows2 = read_csv(scaled)
    assert float(rows2[0]["n_mean"]) == pytest.approx(float(rows1[0]["n_mean"]), rel=1e-12)
    for col in ("D_main", "D_scully", "D_mcgowan", "D_slope"):
        assert float(rows2[0][col]) == pytest.approx(2.0 * float(rows1[0][col]), rel=1e-10)
    assert float(rows2[0]["st_ratio"]) == pytest.approx(float(rows1[0]["st_ratio"]), rel=1e-10)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "maserline", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "maserline" in proc.stdout


def test_import_path_leaves_out_scipy_integrate():
    """Importing the package and building the parser loads no time
    stepper (only the dense oracle needs one) and no sparse-matrix package
    (the jump-operator trace uses its own single-band matrices); a
    ``spectrum`` command, whose g(t) is the eigen expansion, loads no time
    stepper either."""
    import subprocess
    import sys

    code = (
        "import sys, maserline, maserline.cli; maserline.cli.build_parser(); "
        "print('scipy.integrate' in sys.modules, 'scipy.sparse' in sys.modules); "
        "code = maserline.cli.main(['spectrum', '--rate', '50', '--nth', '0.01', '--g-tau', '0.35']); "
        "print(code, 'scipy.integrate' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # the spectrum table sits between the two reports
    assert lines[0] == "False False"
    assert lines[-1] == "0 False"


def test_parallel_rows_match_serial(tmp_path):
    # r=50 keeps every level; at r=1000 the rows are cut to the nonzero support
    for rate in ("50", "1000"):
        argv = ["scan-theta", "--rate", rate, "--nth", "0.01", "--min", "0.6", "--max", "2.0", "--steps", "4"]
        _, serial = run(tmp_path, argv, f"serial{rate}.csv")
        _, parallel = run(tmp_path, argv + ["--jobs", "2"], f"parallel{rate}.csv")
        serial_meta, _, serial_rows = read_csv(serial)
        parallel_meta, _, parallel_rows = read_csv(parallel)
        assert serial_rows == parallel_rows


def test_parallel_rows_start_no_more_workers_than_rows(monkeypatch, capsys):
    """The executor forks every worker on its first submit, so --jobs is
    capped at the row count and at the CPU count; at one worker the rows
    run serially without an executor."""
    requested = []

    class SerialExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(maserline.cli, "ProcessPoolExecutor", SerialExecutor)
    for jobs, cpus, expected in (("64", 8, [3]), ("5000", 2, [2]), ("64", 1, []), ("64", None, [])):
        requested.clear()
        monkeypatch.setattr(maserline.cli.os, "cpu_count", lambda cpus=cpus: cpus)
        assert main(["scan-theta", "--rate", "50", "--steps", "3", "--jobs", jobs]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 3
        assert requested == expected, (jobs, cpus)


def test_stdout_default(capsys):
    code = main(["scan-theta", "--rate", "50", "--nth", "0.01",
                 "--min", "1.0", "--max", "1.0", "--steps", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1].startswith("theta,")
