"""Command-line front end: formats, reproducibility, error contracts."""

import concurrent.futures
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import maserline.cli
from maserline import (
    ExponentialTau,
    FixedTau,
    MaserlineError,
    MaserParams,
    SpectralError,
    TrigAverages,
    build_sideband_generator,
    build_uniform_lindblad,
    correlate,
    initial_sideband,
    linewidth_components,
    linewidth_exp_closed,
    linewidth_exp_scully,
    linewidth_from_slope,
    linewidth_mcgowan,
    linewidth_scully,
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


@pytest.mark.parametrize("argv, statuses", [
    # theta = pi at r/kappa = 1 traps the field in the vacuum
    (["--rate", "1", "--nth", "0", "--min", "0.9", "--max", "1.1", "--steps", "3"], ["ok", "vacuum", "ok"]),
    (["--rate", "50", "--nth", "0.01", "--min", "0.2", "--max", "3.9", "--steps", "9"], ["ok"] * 9),
    (["--rate", "1000", "--nth", "0", "--min", "0.2", "--max", "3.9", "--steps", "5"], ["ok"] * 5),
])
def test_scan_theta_rows_are_the_one_row_library_results(tmp_path, argv, statuses):
    """Each row, evaluated in a block of rows of one basis size, prints the
    one-row library results of its own record to the last digit; a vacuum
    row keeps its empty cells."""
    code, out = run(tmp_path, ["scan-theta", *argv])
    assert code == 0
    _, _, rows = read_csv(out)
    assert [row["status"] for row in rows] == statuses
    rate = float(argv[1])
    for row in rows:
        g_tau = float(row["g_tau"])
        params = MaserParams(1.0, float(argv[3]), rate, g_tau, FixedTau(1.0))
        stats = steady_state(params).on_support()
        assert row["n_mean"] == f"{stats.mean:.17g}"
        if row["status"] == "vacuum":
            assert all(row[col] == "" for col in ("D_main", "D_cos", "D_mcgowan", "D_slope", "st_ratio"))
            continue
        breakdown = linewidth_components(params, stats)
        expected = {
            "D_main": breakdown.total, "D_thermal": breakdown.thermal, "D_cos": breakdown.cosine,
            "D_sin": breakdown.sine, "D_scully": linewidth_scully(params, stats),
            "D_mcgowan": linewidth_mcgowan(params, stats),
            "D_slope": linewidth_from_slope(build_sideband_generator(params, stats.N), initial_sideband(stats)),
        }
        for col, value in expected.items():
            assert row[col] == f"{value:.17g}", col


def test_scan_theta_blocks_of_two_rows_give_the_same_bytes(tmp_path, monkeypatch):
    """Blocks bounded to two rows of N = 200 (2 * 201 entries) print the
    bytes of the unbounded scan, whose 7 rows form one block."""
    argv = ["scan-theta", "--rate", "50", "--nth", "0.01", "--min", "0.3", "--max", "3.6", "--steps", "7"]
    blocks = []
    build = maserline.cli.build_sideband_generator

    def recorded(params, N, averages=None, levels=None):
        gen = build(params, N, averages, levels)
        blocks.append(gen.diag.shape[0] if gen.diag.ndim == 2 else 1)
        return gen

    monkeypatch.setattr(maserline.cli, "build_sideband_generator", recorded)
    _, whole = run(tmp_path, argv, "whole.csv")
    assert blocks == [7]
    blocks.clear()
    monkeypatch.setattr(maserline.linewidth, "_BLOCK_ENTRIES", 2 * 201)
    _, pairs = run(tmp_path, argv, "pairs.csv")
    assert blocks == [2, 2, 2, 1]
    assert pairs.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("trunc", [None, 300])
def test_scan_theta_stacked_rows_print_their_one_row_library_results(tmp_path, trunc):
    """At r/kappa = 50 the rows are searched (or, with --trunc, solved) as
    one stack and filled as one block, and every row prints its one-row
    library results."""
    argv = ["scan-theta", "--rate", "50", "--nth", "0.01", "--min", "0.3", "--max", "3.6", "--steps", "7"]
    if trunc is not None:
        argv += ["--trunc", str(trunc)]
    code, out = run(tmp_path, argv)
    assert code == 0
    for row in read_csv(out)[2]:
        params = MaserParams(1.0, 0.01, 50.0, float(row["g_tau"]), FixedTau(1.0))
        stats = steady_state(params, trunc).on_support()
        breakdown = linewidth_components(params, stats)
        assert row["n_mean"] == f"{stats.mean:.17g}" and row["D_main"] == f"{breakdown.total:.17g}"
        slope = linewidth_from_slope(build_sideband_generator(params, stats.N), initial_sideband(stats))
        assert row["D_slope"] == f"{slope:.17g}"


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


@pytest.mark.parametrize("rate, g_tau", [("50", "1e80"), ("3", "2.3e153")])
def test_exponential_g_tau_beyond_the_closed_forms_is_refused(capsys, rate, g_tau):
    """g*tau_bar whose square is finite but whose closed exponential forms
    overflow used to end in numpy warnings and a misleading SpectralError
    or ValueError; it is refused with one JSON line that names it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--dist", "exp", "--rate", rate, "--g-tau", g_tau]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("g*tau_bar must be at most")


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


def test_fock_resolved_prints_weights_on_every_level(tmp_path):
    """fock-resolved prints the weights of every level 0..N, also where p_n
    is below 1e-40 of the peak (outside the weighted levels, which the
    linewidth routes evaluate alone): there w_main is nonzero too."""
    argv = ["fock-resolved", "--rate", "50", "--nth", "0.01", "--g-tau", "0.3"]
    code, out = run(tmp_path, argv)
    assert code == 0
    rows = read_csv(out)[2]
    params = MaserParams(1.0, 0.01, 50.0, 0.3, FixedTau(1.0))
    stats = steady_state(params)
    cos_w, sin_w = pump_weights(params, stats.N)
    assert [int(row["n"]) for row in rows] == list(range(stats.N + 1))
    assert [row["w_main"] for row in rows] == [f"{w:.17g}" for w in cos_w + sin_w]
    faint = [row for row in rows if float(row["p_n"]) < 1e-40 * stats.p.max()]
    assert stats.weighted_levels[1] < stats.N + 1 and len(faint) > 50
    assert all(float(row["w_main"]) != 0.0 for row in faint)


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
def test_spectrum_evaluates_the_recurrence_once_per_family(tmp_path, recurrence_calls, extra, calls):
    """The truncation search evaluates the recurrence with the default
    family; only a --nodes rule needs it again on the chosen basis."""
    code, _ = run(tmp_path, ["spectrum", "--rate", "50", "--nth", "0.01", "--g-tau", "0.35"] + extra)
    assert code == 0
    assert len(recurrence_calls) == calls


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


def test_uniform_convergence_builds_each_family_once(tmp_path, monkeypatch):
    """A family depends on g_bar, not on the row's rate, so all rows share
    one family per order pair; the four rows share one basis size, so each
    family serves them in one block call."""
    built, used = [], []
    build, linewidth = maserline.cli.build_uniform_lindblad, maserline.cli.uniform_linewidth

    def counted_build(params, orders):
        built.append(orders)
        return build(params, orders)

    def recorded_linewidth(params, averages, N):
        used.append((averages, len(params)))
        return linewidth(params, averages, N)

    monkeypatch.setattr(maserline.cli, "build_uniform_lindblad", counted_build)
    monkeypatch.setattr(maserline.cli, "uniform_linewidth", recorded_linewidth)
    argv = ["uniform-convergence", "--dist", "exp", "--orders", "1,0;3,2", "--min", "1.0",
            "--max", "2.5", "--steps", "4"]
    code, _ = run(tmp_path, argv)
    assert code == 0
    assert built == [(1, 0), (3, 2)]
    assert [rows for _, rows in used] == [4, 4] and len({id(family) for family, _ in used}) == 2


def _uniform_one_row_cells(theta_bars, g_bar=0.3, kappa=1.0, trunc=None, orders=((1, 0), (3, 2), (7, 6))):
    """The cells of uniform-convergence rows from one-row library calls:
    the exact statistics, the two closed forms and one uniform_linewidth
    per order pair, record by record."""
    rows = []
    for theta_bar in theta_bars:
        rate = (theta_bar / g_bar) ** 2 * kappa
        params = MaserParams(kappa, 0.0, float(rate), g_bar * kappa, ExponentialTau(1.0 / kappa))
        stats = steady_state(params, trunc)
        row = {"theta_bar": theta_bar, "n_mean": stats.mean}
        if stats.mean != 0.0:
            row["D_exact"] = linewidth_exp_closed(params, stats)
            row["D_exp_scully"] = linewidth_exp_scully(params, stats)
            for pair in orders:
                row[f"D_order_{pair[0]}"] = uniform_linewidth(params, build_uniform_lindblad(params, pair), stats.N)
        rows.append(row)
    return rows


@pytest.mark.parametrize("flags, theta_bars, options", [
    # g_bar = 0.05: the first candidates reach 6800 levels, so the rows'
    # basis sizes differ and their blocks split
    (["--g-tau", "0.05", "--min", "0.5", "--max", "2.5", "--steps", "5"],
     np.linspace(0.5, 2.5, 5), {"g_bar": 0.05}),
    (["--min", "0", "--max", "2.0", "--steps", "5"], np.linspace(0.0, 2.0, 5), {}),  # a vacuum row
    (["--trunc", "400", "--min", "0.4", "--max", "3.0", "--steps", "6"], np.linspace(0.4, 3.0, 6), {"trunc": 400}),
    (["--format", "json", "--steps", "7"], np.linspace(0.2, 3.0, 7), {}),
    (["--jobs", "2", "--steps", "7", "--orders", "1,0;5,4"], np.linspace(0.2, 3.0, 7), {"orders": ((1, 0), (5, 4))}),
    (["--kappa", "2", "--steps", "5"], np.linspace(0.2, 3.0, 5), {"kappa": 2.0}),
], ids=["g_tau-0.05", "min-0", "trunc-400", "json", "jobs-2", "kappa-2"])
def test_uniform_blocks_print_the_one_row_results(tmp_path, flags, theta_bars, options):
    """Rows evaluated in blocks print every cell of their one-row library
    calls to the last digit; a vacuum row keeps its empty cells."""
    as_json = "json" in flags
    code, out = run(tmp_path, ["uniform-convergence", "--dist", "exp", *flags], "out.json" if as_json else "out.csv")
    assert code == 0
    printed = json.loads(out.read_text())["rows"] if as_json else read_csv(out)[2]
    expected = _uniform_one_row_cells(theta_bars, **options)
    assert len(printed) == len(expected)
    for row, cells in zip(printed, expected):
        if as_json:
            assert {k: row[k] for k in row if k != "status"} == {k: float(v) for k, v in cells.items()}
        else:
            assert {k: v for k, v in row.items() if v != "" and k != "status"} == {
                k: f"{v:.17g}" for k, v in cells.items()}
        assert (row["status"] == "vacuum") == ("D_exact" not in cells)
    if "--min" in flags and flags[flags.index("--min") + 1] == "0":
        assert printed[0]["status"] == "vacuum"


def test_uniform_blocks_of_two_rows_give_the_same_bytes(tmp_path, monkeypatch):
    """Blocks bounded to two rows of N = 200 print the bytes of the
    unbounded scan, whose 5 rows form one block per family."""
    argv = ["uniform-convergence", "--dist", "exp", "--orders", "1,0;3,2", "--steps", "5"]
    blocks = []
    linewidth = maserline.cli.uniform_linewidth

    def recorded(params, averages, N):
        blocks.append(len(params))
        return linewidth(params, averages, N)

    monkeypatch.setattr(maserline.cli, "uniform_linewidth", recorded)
    _, whole = run(tmp_path, argv, "whole.csv")
    assert blocks == [5, 5]
    blocks.clear()
    monkeypatch.setattr(maserline.linewidth, "_BLOCK_ENTRIES", 2 * 201)
    _, pairs = run(tmp_path, argv, "pairs.csv")
    assert blocks == [2, 2, 2, 2, 1, 1]
    assert pairs.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("argv, config", [
    (["--min", "0", "--max", "0.5", "--steps", "3"], None),
    (["--min", "-0.2", "--steps", "1"], None),
    (["--steps", "2"], {"min": -1.0, "max": 1.0}),
])
def test_scan_theta_refuses_a_non_positive_theta_up_front(tmp_path, capsys, monkeypatch, argv, config):
    """At rate > 0 theta sets g*tau, so a scan whose lowest theta is <= 0
    is a ConfigError naming --min, raised before any row runs."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    monkeypatch.setattr(maserline.cli, "_scan_theta_rows", None)  # no row may run
    assert main(["scan-theta", "--rate", "50", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("--min ") and "theta sets g*tau" in err["message"]


def test_scan_theta_at_rate_zero_reads_g_tau_whatever_theta(tmp_path):
    """At rate 0 theta does not set g*tau, so a scan through theta = 0 runs."""
    code, out = run(tmp_path, ["scan-theta", "--rate", "0", "--nth", "0.2", "--min", "0", "--max", "0.5",
                               "--steps", "3"])
    assert code == 0
    assert [row["status"] for row in read_csv(out)[2]] == ["ok"] * 3


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
    stepper (only the dense oracle of the tests needs one) and no
    sparse-matrix package (the jump-operator trace uses its own
    single-band matrices); a ``spectrum`` command, whose g(t) is the eigen
    expansion, loads no time stepper either."""
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


def test_package_source_imports_no_time_stepper():
    """No module of the package mentions ``scipy.integrate``: no route
    steps the master equation in time, and the dense oracle that does
    lives in the tests."""
    from pathlib import Path

    package = Path(maserline.cli.__file__).parent
    hits = [path.name for path in sorted(package.rglob("*.py")) if "scipy.integrate" in path.read_text()]
    assert hits == []


def test_readme_quick_start_runs():
    """The README's library example runs as printed, and its two
    linewidths, the exact route's total and the initial slope, agree."""
    import re
    import subprocess
    import sys
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    breakdown, slope = proc.stdout.splitlines()
    assert float(slope) == pytest.approx(float(breakdown.split()[0]), rel=1e-13, abs=0.0)


def test_import_path_and_scan_commands_leave_out_scipy():
    """Importing the package, building the parser and running the three
    scan commands at one worker load no scipy and no process pool
    (``multiprocessing``) at all; the eigen solve of ``spectrum`` loads
    ``scipy.linalg`` on its first call."""
    import subprocess
    import sys

    code = (
        "import contextlib, io, sys, maserline, maserline.cli; maserline.cli.build_parser(); "
        "report = ['scipy' in sys.modules, 'multiprocessing' in sys.modules]; "
        "argvs = [['scan-theta', '--rate', '50', '--steps', '3', '--jobs', '1'], "
        "['fock-resolved', '--rate', '200', '--nth', '0.1', '--g-tau', '0.4665'], "
        "['uniform-convergence', '--dist', 'exp', '--steps', '3', '--jobs', '1'], "
        "['spectrum', '--rate', '50', '--nth', '0.01', '--g-tau', '0.35']]\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        report += [maserline.cli.main(argv), 'scipy' in sys.modules, 'multiprocessing' in sys.modules]\n"
        "print(*report, 'scipy.linalg' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.split()
    # import and parser; then per command: exit code, scipy, multiprocessing
    assert report[:2] == ["False", "False"]
    assert report[2:11] == ["0", "False", "False"] * 3
    assert report[11:13] == ["0", "True"]
    assert report[-1] == "True"


def test_scan_theta_below_threshold_at_rate_1e4(tmp_path, capsys):
    """Below threshold (pump r/kappa (g tau)^2 < 1) the truncation search
    starts at its floor, so the rows succeed; above threshold 4 r/kappa
    levels exceed the hard limit and the search refuses."""
    code, out = run(tmp_path, ["scan-theta", "--rate", "10000", "--nth", "0.01",
                               "--min", "0.1", "--max", "0.3", "--steps", "3"])
    assert code == 0
    rows = read_csv(out)[2]
    assert [row["status"] for row in rows] == ["ok"] * 3
    for row in rows:
        assert float(row["D_slope"]) == pytest.approx(float(row["D_main"]), rel=1e-9)
    assert main(["scan-theta", "--rate", "10000", "--nth", "0.01",
                 "--min", "1.0", "--max", "1.0", "--steps", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceLimitError"


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
    capped at the row count and at the CPU count; each worker is handed
    one chunk of rows, and at one worker the rows run serially without an
    executor."""
    requested, mapped = [], []

    class SerialExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            mapped.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    for jobs, cpus, expected in (("64", 8, [3]), ("5000", 2, [2]), ("64", 1, []), ("64", None, [])):
        for command in (["scan-theta", "--rate", "50"], ["uniform-convergence", "--dist", "exp"]):
            requested.clear()
            mapped.clear()
            monkeypatch.setattr(maserline.cli.os, "cpu_count", lambda cpus=cpus: cpus)
            assert main([*command, "--steps", "3", "--jobs", jobs]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 2 + 3
            assert requested == expected, (jobs, cpus)
            # one contiguous chunk of rows per worker: one task each
            assert mapped == expected, (jobs, cpus)


def _fresh_parser(monkeypatch):
    """Make the next main() call build its parser anew."""
    monkeypatch.setattr(maserline.cli, "_PARSER", None, raising=False)


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one main() call; argparse exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SCAN_ONE = ["scan-theta", "--rate", "50", "--nth", "0.01", "--min", "1.5", "--max", "1.5", "--steps", "1"]
_SPECTRUM = ["spectrum", "--rate", "50", "--nth", "0.01", "--g-tau", "0.35"]


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    """main() builds its parser on the first call, and an argparse refusal
    does not make the next call build another."""
    built = []
    build = maserline.cli.build_parser

    def counted():
        built.append(1)
        return build()

    _fresh_parser(monkeypatch)
    monkeypatch.setattr(maserline.cli, "build_parser", counted)
    for argv in (_SCAN_ONE, ["fock-resolved", "--rate", "50", "--g-tau", "0.3"], ["spectrum", "--rate", "fifty"],
                 _SCAN_ONE):
        _outcome(argv, capsys)
    assert built == [1]
    # the public builder still returns a new parser on every call
    assert build() is not build()


# (first call, next call): the first one's arguments must not reach the next
_CALL_PAIRS = {
    "repeated-g-tau": (["fock-resolved", "--rate", "50", "--g-tau", "0.3", "--g-tau", "0.35"],
                       ["fock-resolved", "--rate", "50", "--g-tau", "0.4"]),
    "g-tau-field": (_SPECTRUM, ["fock-resolved", "--rate", "50", "--g-tau", "0.4"]),
    "config-file": (["scan-theta", "--config", "{config}"], _SCAN_ONE),
    "nodes": (["spectrum", "--rate", "50", "--dist", "exp", "--g-tau", "0.3", "--nodes", "16"], _SPECTRUM),
    "bad-number": (["spectrum", "--rate", "fifty"], _SPECTRUM),
    "bad-choice": (["scan-theta", "--format", "xml", "--rate", "60"], _SCAN_ONE),
    "bad-command": (["scan"], ["fock-resolved", "--rate", "50", "--g-tau", "0.4"]),
}


@pytest.mark.parametrize("first, then", _CALL_PAIRS.values(), ids=_CALL_PAIRS)
def test_a_call_leaves_nothing_in_the_reused_parser(tmp_path, monkeypatch, capsys, first, then):
    """The call after another gives what it gives on a freshly built parser:
    repeated flags, a config file, exp-only options and argparse's refusals
    (exit 2) do not carry over."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kappa": 2.0, "rate": 60, "min": 1.0, "max": 1.0, "steps": 1, "format": "json"}))
    first = [str(config) if arg == "{config}" else arg for arg in first]
    _fresh_parser(monkeypatch)
    expected = _outcome(then, capsys)
    assert expected[0] == 0
    _fresh_parser(monkeypatch)
    _outcome(first, capsys)
    assert _outcome(then, capsys) == expected
    if then[0] == "fock-resolved":
        rows = [line.split(",") for line in expected[1].splitlines()[2:]]
        assert {row[0] for row in rows} == {"0.40000000000000002"}  # one block, one curve
        assert [int(row[2]) for row in rows] == list(range(len(rows)))


_HELP_ARGVS = [["--help"]] + [[command, "--help"] for command in maserline.cli._ALL]


def test_help_texts_do_not_depend_on_earlier_calls(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    first = {}
    for argv in _HELP_ARGVS:
        _fresh_parser(monkeypatch)
        first[argv[0]] = _outcome(argv, capsys)
        assert first[argv[0]][0] == 0
        assert first[argv[0]][1].startswith("usage: maserline")
    for argv in (_SCAN_ONE, _CALL_PAIRS["repeated-g-tau"][0], _CALL_PAIRS["bad-number"][0], ["scan"]):
        _outcome(argv, capsys)
    for argv in _HELP_ARGVS:
        assert _outcome(argv, capsys) == first[argv[0]]


def test_stdout_default(capsys):
    code = main(["scan-theta", "--rate", "50", "--nth", "0.01",
                 "--min", "1.0", "--max", "1.0", "--steps", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1].startswith("theta,")


_CSV_TABLE = {
    "float": [0.1, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-300],
    "float64": [np.float64(1 / 3), np.float64(-0.0), 7.0, np.float64(5e-324), np.float64(-1.7976931348623157e308)],
    "int": [0, 1, -7, 10**20, 3],
    "bool": [True, False, True, False, True],
    "str": ["ok", "vacuum", "", "a b", "ok"],
    "float_none": [1.5, None, np.float64(2.0), None, -0.0],
    "mixed": [1, 2.5, "x", None, True],
    "none": [None] * 5,
}


def test_csv_columns_are_the_per_cell_text(capsys):
    """Whole-column formatting writes the bytes the per-cell ``_fmt`` path
    writes, on float, numpy-float, int, bool, str and empty cells, mixed
    columns, and the signed zero and the extreme doubles."""
    cfg = {"format": "csv", "out": None}
    maserline.cli._emit(cfg, {}, _CSV_TABLE)
    lines = capsys.readouterr().out.split("\n")
    expected = [",".join(_CSV_TABLE)] + [
        ",".join(map(maserline.cli._fmt, row)) for row in zip(*_CSV_TABLE.values())
    ]
    assert lines[1:] == expected + [""]
    assert lines[2].split(",")[:2] == ["0.10000000000000001", "0.33333333333333331"]
    assert lines[3].split(",")[:2] == ["-0", "-0"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
@pytest.mark.parametrize("column", ["float", "float64", "float_none"])
def test_csv_writer_refuses_a_non_finite_cell_by_its_column(capsys, bad, column):
    table = {name: list(cells) for name, cells in _CSV_TABLE.items()}
    table[column][3] = bad
    with pytest.raises(MaserlineError, match=f"non-finite cell {column}="):
        maserline.cli._emit({"format": "csv", "out": None}, {}, table)
    assert capsys.readouterr().out == ""
