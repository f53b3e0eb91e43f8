"""Command-line front end: parameter scans and machine-readable output.

Four subcommands emit figure-ready tables:

* ``scan-theta``          linewidth routes vs the pump parameter theta
* ``fock-resolved``       per-photon-number linewidth weights and statistics
* ``spectrum``            correlation function, spectrum, FWHM
* ``uniform-convergence`` uniform-approximation orders vs the exact line

Configuration comes from an optional JSON file (--config) with individual
flags overriding single fields; the fully resolved configuration is echoed
into every output so runs are reproducible byte for byte.  Config-file
values are checked like flags, --jobs must be at least 1, and an --out
that cannot be written exits 2 with a ConfigError.  Output is CSV
(17 significant digits) or JSON, whose rows list their keys in the CSV
column order.  Cells are never NaN/Inf: undefined values are left empty in
CSV, absent from JSON rows, and flagged in the status column.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .averages import TrigAverages
from .errors import ConfigError, MaserlineError, VacuumStateError
from .linewidth import (
    linewidth_components,
    linewidth_exp_closed,
    linewidth_exp_scully,
    linewidth_mcgowan,
    linewidth_scully,
    mcgowan_weights,
    pump_weights,
    schawlow_townes_ratio,
)
from .model import ExponentialTau, FixedTau, MaserParams
from .regression import (
    build_sideband_generator,
    coherence_window,
    correlate,
    initial_sideband,
    linewidth_from_slope,
    spectral_decomposition,
    spectrum_and_fwhm,
)
from .steady import require_excitation, steady_state
from .uniform import build_uniform_lindblad, uniform_linewidth

THRESHOLD_THETA_BAR = 1.0 / math.sqrt(2.0)

_ALL = ("scan-theta", "fock-resolved", "spectrum", "uniform-convergence")
_SCANS = ("scan-theta", "uniform-convergence")
_RATED = ("scan-theta", "fock-resolved", "spectrum")

# field -> (default, accepted values, commands that read it, flag help), in
# the order of the echoed config and of the flags.  Accepted values are float
# (an int or a float), int, str or a tuple of the allowed strings; None only
# where it is the default.  A field without help has no common flag.
_FIELDS = {
    "kappa": (1.0, float, _ALL, "cavity decay rate (default 1)"),
    "nth": (0.0, float, _RATED, "thermal occupation (default 0)"),
    "rate": (0.0, float, _RATED, "atom injection rate (units of kappa)"),
    "g_tau": (None, float, _ALL, None),  # each command has its own --g-tau
    "dist": ("fixed", ("fixed", "exp"), ("spectrum", "uniform-convergence"), "interaction-time distribution"),
    "scan": (None, str, (), None),
    "min": (None, float, _SCANS, "scan lower bound"),
    "max": (None, float, _SCANS, "scan upper bound"),
    "steps": (50, int, _SCANS, "number of scan points"),
    "trunc": (None, int, _ALL, "Fock truncation override"),
    "nodes": (None, int, ("spectrum",), "quadrature node override"),
    "orders": ("1,0;3,2;7,6", str, ("uniform-convergence",), "uniform order pairs, e.g. '1,0;3,2;7,6'"),
    "out": (None, str, _ALL, "output path (default stdout)"),
    "format": ("csv", ("csv", "json"), _ALL, "output format (default csv)"),
    "jobs": (1, int, _SCANS, "parallel workers for scan rows (default 1)"),
}
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _load_config(args: argparse.Namespace) -> dict:
    """The resolved config: file fields, then flags, each checked against _FIELDS."""
    resolved = {key: field[0] for key, field in _FIELDS.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, got {file_cfg!r}")
        unknown = set(file_cfg) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key, (default, accepted, readers, _) in _FIELDS.items():
        value = getattr(args, key, None)
        if value is None:
            value = resolved[key]
        resolved[key] = value
        if value is None and default is None:
            continue
        if isinstance(accepted, tuple):
            if value not in accepted:
                raise ConfigError(f"{key} must be one of {list(accepted)}, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, _KINDS[accepted][0]):
            raise ConfigError(f"{key} must be {_KINDS[accepted][1]}, got {value!r}")
        # a value the command never reads would be echoed without changing a cell
        if args.command not in readers and value != default:
            raise ConfigError(f"{args.command} does not read {key}; got {value!r}")
    # every rate is divided by kappa; check it before any arithmetic
    if not 0.0 < resolved["kappa"] < math.inf:
        raise ConfigError(f"kappa must be positive and finite, got {resolved['kappa']!r}")
    if resolved["jobs"] < 1:
        raise ConfigError(f"jobs must be at least 1, got {resolved['jobs']!r}")
    if args.command == "uniform-convergence" and resolved["g_tau"] == 0:
        # the scan sets the rate to (theta_bar / g_tau)^2 kappa
        raise ConfigError("uniform-convergence needs g_tau != 0")
    return resolved


def _params_from_config(cfg: dict, g_tau: float | None = None) -> MaserParams:
    g_tau = g_tau if g_tau is not None else cfg["g_tau"]
    if g_tau is None:
        raise ConfigError("g_tau is required (flag --g-tau or config)")
    kappa = float(cfg["kappa"])
    # tau is fixed to one cavity lifetime; g carries the whole product
    tau = 1.0 / kappa
    return MaserParams(
        kappa=kappa,
        n_th=float(cfg["nth"]),
        r=float(cfg["rate"]),
        g=float(g_tau) * kappa,
        tau_dist=FixedTau(tau) if cfg["dist"] == "fixed" else ExponentialTau(tau),
    )


def _scan_range(cfg: dict, default_min: float, default_max: float) -> np.ndarray:
    lo = float(cfg["min"]) if cfg["min"] is not None else default_min
    hi = float(cfg["max"]) if cfg["max"] is not None else default_max
    for key, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    steps = int(cfg["steps"])
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    if steps > 1 and not lo < hi:
        raise ConfigError(f"scan range needs min < max, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def _fmt(column: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    if not math.isfinite(value):
        raise MaserlineError(f"non-finite cell {column}={value}; refusing to write")
    return f"{value:.17g}"


def _emit(cfg: dict, header_meta: dict, table: dict[str, list]) -> None:
    """Write one table, given as column name -> cells in row order.

    The whole text is built before ``--out`` is opened or stdout written,
    so a refused cell leaves no output.
    """
    # the destination path is the one field that may differ between
    # otherwise identical runs; leaving it out keeps outputs byte-identical
    echoed = {k: v for k, v in cfg.items() if k != "out"}
    meta = {"tool": "maserline", "version": __version__, "config": echoed, **header_meta}
    # _fmt refuses a non-finite cell; JSON writes the values themselves
    cells = [[_fmt(name, value) for value in column] for name, column in table.items()]
    if cfg["format"] == "json":
        rows = [{name: value for name, value in zip(table, row) if value is not None}
                for row in zip(*table.values())]
        text = json.dumps({"metadata": meta, "rows": rows}, indent=1) + "\n"
    else:
        lines = ["# " + json.dumps(meta), ",".join(table), *map(",".join, zip(*cells))]
        text = "\n".join(lines) + "\n"
    if cfg["out"]:
        try:
            with open(cfg["out"], "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {cfg['out']}: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- scan-theta -------------------------------------------------------------

SCAN_THETA_COLUMNS = [
    "theta", "g_tau", "n_mean", "D_main", "D_thermal", "D_cos", "D_sin",
    "D_scully", "D_mcgowan", "D_slope", "st_ratio", "st_ref", "status",
]


def _scan_theta_row(task) -> dict:
    cfg, theta_over_pi = task
    theta = theta_over_pi * math.pi
    rate = float(cfg["rate"])
    kappa = float(cfg["kappa"])
    if rate > 0:
        g_tau = theta / math.sqrt(rate / kappa)
    elif cfg["g_tau"] is None:
        g_tau = 1.0
    else:
        g_tau = float(cfg["g_tau"])
    params = _params_from_config(cfg, g_tau=g_tau)
    row = {"theta": theta, "g_tau": g_tau, "status": "ok"}
    # every quantity of the row is exact on the levels up to the last p_n != 0
    stats = steady_state(params, cfg["trunc"]).on_support()
    averages = TrigAverages.for_params(params)
    row["n_mean"] = stats.mean
    try:
        breakdown = linewidth_components(params, stats, averages)
    except VacuumStateError:
        row["status"] = "vacuum"
        return row
    row.update(
        D_main=breakdown.total,
        D_thermal=breakdown.thermal,
        D_cos=breakdown.cosine,
        D_sin=breakdown.sine,
        D_scully=linewidth_scully(params, stats),
        D_mcgowan=linewidth_mcgowan(params, stats, averages),
    )
    gen = build_sideband_generator(params, stats.N, averages)
    row["D_slope"] = linewidth_from_slope(gen, initial_sideband(stats))
    ratio, reference = schawlow_townes_ratio(params, stats, breakdown.total)
    row["st_ratio"] = ratio
    row["st_ref"] = reference
    return row


def cmd_scan_theta(cfg: dict) -> None:
    if float(cfg["rate"]) > 0 and cfg["g_tau"] is not None:
        raise ConfigError("scan-theta sets g*tau from theta at rate > 0 and reads g_tau at rate 0 only")
    thetas = _scan_range(cfg, 0.1, 4.0)  # in units of pi
    tasks = [(cfg, t) for t in thetas]
    rows = _map_ordered(_scan_theta_row, tasks, int(cfg["jobs"]))
    table = {name: [row.get(name) for row in rows] for name in SCAN_THETA_COLUMNS}
    _emit(cfg, {"scan": "theta_over_pi"}, table)


# -- fock-resolved ----------------------------------------------------------

def cmd_fock_resolved(cfg: dict, g_taus: list[float]) -> None:
    if not g_taus:
        raise ConfigError("at least one --g-tau is required")
    table: dict[str, list] = {}
    for g_tau in g_taus:
        # fock-resolved reads no dist: tau is fixed
        params = _params_from_config(cfg, g_tau=g_tau)
        stats = steady_state(params, cfg["trunc"])
        cos_w, sin_w = pump_weights(params, stats.N)
        main = cos_w + sin_w
        mcgowan = mcgowan_weights(params, stats.N)
        theta = params.theta(params.tau_dist.tau)
        main_peak = float(np.max(main)) or 1.0
        mc_peak = float(np.max(np.abs(mcgowan))) or 1.0
        size = stats.N + 1
        block = {
            "g_tau": [g_tau] * size,
            "theta": [theta] * size,
            "n": list(range(size)),
            "p_n": stats.p.tolist(),
            "w_main": main.tolist(),
            "w_mcgowan": mcgowan.tolist(),
            "w_main_norm": (main / main_peak).tolist(),
            "w_mcgowan_norm": (mcgowan / mc_peak).tolist(),
            "status": ["ok"] * size,
        }
        for name, cells in block.items():
            table.setdefault(name, []).extend(cells)
    _emit(cfg, {"weight_normalization": "per-curve maximum"}, table)


# -- spectrum ---------------------------------------------------------------

def cmd_spectrum(cfg: dict) -> None:
    params = _params_from_config(cfg)
    # statistics and generator from one family: v0 must be the steady state
    # of the generator it is evolved with
    averages = TrigAverages.for_params(params, cfg["nodes"])
    stats = steady_state(params, cfg["trunc"], averages)
    # a vacuum has no coherence to evolve, on any basis
    require_excitation(stats)
    gen = build_sideband_generator(params, stats.N, averages)
    v0 = initial_sideband(stats)
    d_slope = linewidth_from_slope(gen, v0)
    # the dynamics run on the window where v0 lives; the slope above is exact
    # on the full basis and stays there
    lo, hi = coherence_window(v0)
    gen, v0 = gen.window(lo, hi), v0[lo:hi]
    decomp = spectral_decomposition(gen, v0)
    d_eigen = decomp.linewidth
    t_grid = np.linspace(0.0, 8.0 / d_slope, 257)
    g_t = correlate(decomp, t_grid)
    omega = np.linspace(-4.0 * d_eigen, 4.0 * d_eigen, 513)
    s_omega, fwhm = spectrum_and_fwhm(decomp, omega)
    table = {
        "section": ["time"] * t_grid.size + ["frequency"] * omega.size,
        "x": t_grid.tolist() + omega.tolist(),
        "value": g_t.tolist() + s_omega.tolist(),
        "status": ["ok"] * (t_grid.size + omega.size),
    }
    meta = {"D_slope": d_slope, "D_eigen": d_eigen, "FWHM": fwhm, "n_mean": stats.mean}
    _emit(cfg, meta, table)


# -- uniform-convergence ----------------------------------------------------


def _parse_orders(text: str) -> list[tuple[int, int]]:
    try:
        pairs = []
        for chunk in text.split(";"):
            a, b = chunk.split(",")
            pairs.append((int(a), int(b)))
    except ValueError as exc:
        raise ConfigError(f"cannot parse orders {text!r}; expected like '1,0;3,2;7,6'") from exc
    sine_orders = [a for a, _ in pairs]
    if len(set(sine_orders)) < len(sine_orders):
        # each pair owns the column D_order_<sine order>
        raise ConfigError(f"orders {text!r} repeat a sine order")
    return pairs


def _uniform_row(task) -> dict:
    cfg, theta_bar, orders = task
    g_bar = float(cfg["g_tau"])
    rate = (theta_bar / g_bar) ** 2 * float(cfg["kappa"])
    base = dict(cfg, rate=rate)
    params = _params_from_config(base)
    row = {
        "theta_bar": theta_bar,
        "status": "ok" if theta_bar >= THRESHOLD_THETA_BAR else "below-threshold",
    }
    stats = steady_state(params, cfg["trunc"])
    row["n_mean"] = stats.mean
    try:
        row["D_exact"] = linewidth_exp_closed(params, stats)
        row["D_exp_scully"] = linewidth_exp_scully(params, stats)
    except VacuumStateError:
        row["status"] = "vacuum"
        return row
    for order_pair in orders:
        uset = build_uniform_lindblad(params, order_pair, N=stats.N)
        row[f"D_order_{order_pair[0]}"] = uniform_linewidth(uset)
    return row


def cmd_uniform_convergence(cfg: dict) -> None:
    if cfg["dist"] != "exp":
        raise ConfigError("uniform-convergence needs dist='exp'")
    if cfg["g_tau"] is None:
        cfg = dict(cfg, g_tau=0.3)
    orders = _parse_orders(cfg["orders"])
    theta_bars = _scan_range(cfg, 0.2, 3.0)
    columns = ["theta_bar", "n_mean", "D_exact", "D_exp_scully"]
    columns += [f"D_order_{o[0]}" for o in orders] + ["status"]
    tasks = [(cfg, tb, orders) for tb in theta_bars]
    rows = _map_ordered(_uniform_row, tasks, int(cfg["jobs"]))
    table = {name: [row.get(name) for row in rows] for name in columns}
    meta = {"threshold_theta_bar": THRESHOLD_THETA_BAR, "scan": "theta_bar via rate"}
    _emit(cfg, meta, table)


def _map_ordered(fn, tasks, jobs: int) -> list:
    """Rows computed (possibly in parallel) and returned in scan order."""
    # the executor forks all max_workers processes on the first submit
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maserline",
        description="Micromaser photon statistics and linewidth scans.",
    )
    parser.add_argument("--version", action="version", version=f"maserline {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key, (_, accepted, _, help_text) in _FIELDS.items():
            if help_text is None:
                continue
            if isinstance(accepted, tuple):
                p.add_argument(f"--{key}", choices=accepted, help=help_text)
            else:
                p.add_argument(f"--{key}", type=None if accepted is str else accepted, help=help_text)

    p_scan = sub.add_parser("scan-theta", help="linewidth routes vs pump parameter (theta in units of pi)")
    add_common(p_scan)
    p_scan.add_argument("--g-tau", dest="g_tau", type=float, help="g*tau when rate=0")

    p_fock = sub.add_parser("fock-resolved", help="per-photon-number weights (one block per --g-tau)")
    add_common(p_fock)
    # the curves' list; the g_tau field comes from the config file only
    p_fock.add_argument("--g-tau", dest="g_taus", metavar="G_TAU", type=float, action="append",
                        help="g*tau; repeat for several curves")

    p_spec = sub.add_parser("spectrum", help="correlation function, spectrum and FWHM")
    add_common(p_spec)
    p_spec.add_argument("--g-tau", dest="g_tau", type=float, help="g*tau (fixed) or g*tau_bar (exp)")

    p_uni = sub.add_parser("uniform-convergence", help="uniform-approximation orders vs exact (scan theta_bar)")
    add_common(p_uni)
    p_uni.add_argument("--g-tau", dest="g_tau", type=float, help="g*tau_bar (default 0.3)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "fock-resolved":
            g_taus = args.g_taus or ([] if cfg["g_tau"] is None else [float(cfg["g_tau"])])
            cmd_fock_resolved(cfg, g_taus)
        elif args.command == "scan-theta":
            cmd_scan_theta(cfg)
        elif args.command == "spectrum":
            cmd_spectrum(cfg)
        elif args.command == "uniform-convergence":
            cmd_uniform_convergence(cfg)
    except MaserlineError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
