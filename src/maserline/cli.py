"""Command-line front end: parameter scans and machine-readable output.

Four subcommands emit figure-ready tables:

* ``scan-theta``          linewidth routes vs the pump parameter theta
* ``fock-resolved``       per-photon-number linewidth weights and statistics
* ``spectrum``            correlation function, spectrum, FWHM
* ``uniform-convergence`` uniform-approximation orders vs the exact line

Configuration comes from an optional JSON file (--config) with individual
flags overriding single fields; the fully resolved configuration is echoed
into every output so runs are reproducible byte for byte.  Config-file
values are checked like flags: every number must be finite and every
count at least 1.  A bad value, or an --out that cannot be written, exits
2 with a ConfigError.  Output is CSV (17 significant digits) or JSON,
whose rows list their keys in the CSV column order.  Cells are never NaN/Inf: undefined values are left empty in
CSV, absent from JSON rows, and flagged in the status column.

``main(argv)`` may be called repeatedly in one process: the first call
builds the argument parser and later calls reuse it, since a parse leaves
no state in the parser.  The process pool is imported only when ``--jobs``
starts more than one worker.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .averages import TrigAverages
from .errors import ConfigError, MaserlineError
from .linewidth import (
    _block_rows,
    _weighted_levels,
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
from .steady import (
    require_excitation,
    search_rows,
    search_width,
    steady_state,
    steady_states,
)
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


def _check_range(key: str, accepted, value) -> None:
    """The one range rule: a float field is finite, an int field at least 1."""
    if accepted is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if accepted is int and value < 1:
        raise ConfigError(f"{key} must be at least 1, got {value!r}")


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
        else:
            _check_range(key, accepted, value)
        # a value the command never reads would be echoed without changing a cell
        if args.command not in readers and value != default:
            raise ConfigError(f"{args.command} does not read {key}; got {value!r}")
    # fock-resolved's curves, one per repeated --g-tau
    for g_tau in getattr(args, "g_taus", None) or ():
        _check_range("g_tau", float, g_tau)
    # every rate is divided by kappa; check it before any arithmetic
    if not resolved["kappa"] > 0.0:
        raise ConfigError(f"kappa must be positive, got {resolved['kappa']!r}")
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
    steps = int(cfg["steps"])
    if steps > 1 and not lo < hi:
        raise ConfigError(f"scan range needs min < max, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def _refuse_non_finite(table: dict[str, list]) -> None:
    """Raise on the first non-finite cell, column by column.

    Only float cells can be non-finite; the others are text, ints or
    empty.  Filtering and testing run in C: tables reach 10^4 cells.
    """
    for name, column in table.items():
        if not all(map(math.isfinite, filter(float.__instancecheck__, column))):
            bad = next(v for v in column if isinstance(v, float) and not math.isfinite(v))
            raise MaserlineError(f"non-finite cell {name}={bad}; refusing to write")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.17g}"


def _column_text(column: list):
    """The CSV cells of one column: a float column is formatted by one
    ``%``-map (the same float-to-string routine as ``_fmt``), a text column
    passes through, and a mixed column goes cell by cell through ``_fmt``."""
    if all(map(float.__instancecheck__, column)):
        return map("%.17g".__mod__, column)
    if all(map(str.__instancecheck__, column)):
        return column
    return map(_fmt, column)


def _emit(cfg: dict, header_meta: dict, table: dict[str, list]) -> None:
    """Write one table, given as column name -> cells in row order.

    The whole text is built before ``--out`` is opened or stdout written,
    so a refused cell leaves no output.
    """
    # the destination path is the one field that may differ between
    # otherwise identical runs; leaving it out keeps outputs byte-identical
    echoed = {k: v for k, v in cfg.items() if k != "out"}
    meta = {"tool": "maserline", "version": __version__, "config": echoed, **header_meta}
    _refuse_non_finite(table)
    if cfg["format"] == "json":
        rows = [{name: value for name, value in zip(table, row) if value is not None}
                for row in zip(*table.values())]
        text = json.dumps({"metadata": meta, "rows": rows}, indent=1) + "\n"
    else:
        cells = [_column_text(column) for column in table.values()]
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


def _row_statistics(records: list[MaserParams], N: int | None):
    """``(i, stats)`` for each record i, in order.

    A run of consecutive records whose evaluation one chunk takes whole (a
    given ``N``, or one :func:`search_width`) is evaluated as one stack of
    at most ``_block_rows(width)`` records.  Any other record runs
    ``steady_state`` on its own when its turn comes: so its full
    statistics are not held beside those of other records.
    """
    widths = [search_width(params) for params in records] if N is None else [N + 1] * len(records)
    i = 0
    while i < len(records):
        width = widths[i]
        if width is None:  # only a search has rows of no width
            yield i, steady_state(records[i])
            i += 1
            continue
        stop = i + 1
        while stop < len(records) and widths[stop] == width and stop - i < _block_rows(width):
            stop += 1
        run = records[i:stop]
        yield from zip(range(i, stop), search_rows(run) if N is None else steady_states(run, N))
        i = stop


def _fill_rows(rows: list[dict], records: list[MaserParams], N: int | None, fill_block, on_support=False):
    """Set each row's n_mean from the statistics of :func:`_row_statistics`
    (cut to their support with ``on_support``), and its status to vacuum
    where the mean is 0; call ``fill_block`` on each block of consecutive
    rows with an excitation that share one basis size N, at most
    ``_block_rows(N + 1)`` of them, as ``(row, params, stats)`` entries.
    A block is filled as soon as it is complete, so only one block's
    statistics are held at a time."""
    block = []
    for i, stats in _row_statistics(records, N):
        if on_support:
            stats = stats.on_support()
        rows[i]["n_mean"] = stats.mean
        if stats.mean == 0.0:
            rows[i]["status"] = "vacuum"
            continue
        if block and (stats.N != block[0][2].N or len(block) == _block_rows(stats.N + 1)):
            fill_block(block)
            block = []
        block.append((rows[i], records[i], stats))
    if block:
        fill_block(block)


def _scan_theta_rows(cfg: dict, thetas_over_pi) -> list[dict]:
    """The rows of ``thetas_over_pi``, in that order.

    The statistics come from :func:`_row_statistics`: at r/kappa = 50
    every row's first candidate has 200 levels, and the rows are searched
    as stacks; at r/kappa >= 1000 most rows are searched one at a time.
    Cut to their support, they are filled in blocks of one basis size
    (:func:`_fill_rows`).  A vacuum row keeps its empty cells.
    """
    rate = float(cfg["rate"])
    kappa = float(cfg["kappa"])
    rows, records = [], []
    for theta_over_pi in thetas_over_pi:
        theta = theta_over_pi * math.pi
        if rate > 0:
            g_tau = theta / math.sqrt(rate / kappa)
        elif cfg["g_tau"] is None:
            g_tau = 1.0
        else:
            g_tau = float(cfg["g_tau"])
        records.append(_params_from_config(cfg, g_tau=g_tau))
        rows.append({"theta": theta, "g_tau": g_tau, "status": "ok"})
    # every quantity of the row is exact on the levels up to the last p_n != 0;
    # its weights and generator are then evaluated on the weighted levels only
    _fill_rows(rows, records, cfg["trunc"], _scan_theta_block, on_support=True)
    return rows


def _scan_theta_block(block: list[tuple]) -> None:
    """Fill the linewidth cells of a block's (row, params, stats) entries:
    one call of each weight, generator and slope builder on the block's
    records, each row reduced on its own slice.  The records differ in g,
    so the builders take the records' family, with one row per record
    (:meth:`TrigAverages.for_params`).  The builders evaluate the block's
    weighted levels only, and every sum keeps its length and order
    (:func:`linewidth_components`)."""
    rows, records, stats = zip(*block)
    N = stats[0].N
    if len(block) == 1:
        # one record: no row axis, which would only add broadcasting, and no lists
        records, stats = records[0], stats[0]
    averages = TrigAverages.for_params(records)
    columns = (
        linewidth_components(records, stats, averages),
        linewidth_mcgowan(records, stats, averages),
        linewidth_from_slope(build_sideband_generator(records, N, averages, _weighted_levels(stats)),
                             initial_sideband(stats)),
    )
    if len(block) == 1:
        columns = [[value] for value in columns]
    for (row, row_params, row_stats), breakdown, d_mcgowan, d_slope in zip(block, *columns):
        ratio, reference = schawlow_townes_ratio(row_params, row_stats, breakdown.total)
        row.update(
            D_main=breakdown.total,
            D_thermal=breakdown.thermal,
            D_cos=breakdown.cosine,
            D_sin=breakdown.sine,
            D_scully=linewidth_scully(row_params, row_stats),
            D_mcgowan=d_mcgowan,
            D_slope=d_slope,
            st_ratio=ratio,
            st_ref=reference,
        )


def cmd_scan_theta(cfg: dict) -> None:
    if float(cfg["rate"]) > 0 and cfg["g_tau"] is not None:
        raise ConfigError("scan-theta sets g*tau from theta at rate > 0 and reads g_tau at rate 0 only")
    thetas = _scan_range(cfg, 0.1, 4.0)  # in units of pi
    # min < max, so the lowest theta is the --min end of the scan
    if float(cfg["rate"]) > 0 and not thetas[0] > 0:
        raise ConfigError(f"--min {float(thetas[0])!r} puts theta <= 0 in the scan; at rate > 0 theta "
                          "sets g*tau = theta / sqrt(rate / kappa), which must be positive")
    rows = _map_ordered(functools.partial(_scan_theta_rows, cfg), thetas, int(cfg["jobs"]))
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
    # of the generator it is evolved with.  Without --nodes that family is
    # the default steady_state uses itself, so the recurrence runs once.
    averages = TrigAverages.for_params(params, cfg["nodes"])
    stats = steady_state(params, cfg["trunc"], averages if cfg["nodes"] is not None else None)
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


def _uniform_rows(cfg: dict, families, theta_bars) -> list[dict]:
    """The rows of ``theta_bars``, in that order: the exact model's
    statistics, then per block of one basis size (:func:`_fill_rows`) the
    closed forms and one ``uniform_linewidth`` call per family.  A vacuum
    row keeps its empty cells."""
    g_bar = float(cfg["g_tau"])
    rows, records = [], []
    for theta_bar in theta_bars:
        rate = (theta_bar / g_bar) ** 2 * float(cfg["kappa"])
        records.append(_params_from_config(dict(cfg, rate=rate)))
        rows.append({
            "theta_bar": theta_bar,
            "status": "ok" if theta_bar >= THRESHOLD_THETA_BAR else "below-threshold",
        })
    _fill_rows(rows, records, cfg["trunc"], functools.partial(_uniform_block, families))
    return rows


def _uniform_block(families, block: list[tuple]) -> None:
    """Fill the linewidth cells of a block's (row, params, stats) entries,
    whose records differ in r only: each route runs once on the block, and
    each row is reduced on its own slice."""
    rows, records, stats = zip(*block)
    columns = {
        "D_exact": linewidth_exp_closed(records, stats),
        "D_exp_scully": linewidth_exp_scully(records, stats),
    }
    for order_sin, family in families:
        columns[f"D_order_{order_sin}"] = uniform_linewidth(records, family, stats[0].N)
    for i, row in enumerate(rows):
        row.update({name: values[i] for name, values in columns.items()})


def cmd_uniform_convergence(cfg: dict) -> None:
    if cfg["dist"] != "exp":
        raise ConfigError("uniform-convergence needs dist='exp'")
    if cfg["g_tau"] is None:
        cfg = dict(cfg, g_tau=0.3)
    orders = _parse_orders(cfg["orders"])
    theta_bars = _scan_range(cfg, 0.2, 3.0)
    # each row sets the rate to (theta_bar / g_tau)^2 kappa; refuse a scan
    # whose largest rate overflows before any row runs
    with np.errstate(over="ignore"):
        top_rate = (np.max(np.abs(theta_bars)) / float(cfg["g_tau"])) ** 2 * float(cfg["kappa"])
    if not np.isfinite(top_rate):
        raise ConfigError(f"g_tau={cfg['g_tau']!r} puts the largest scan rate (theta_bar / g_tau)^2 kappa "
                          "beyond the float range")
    columns = ["theta_bar", "n_mean", "D_exact", "D_exp_scully"]
    columns += [f"D_order_{o[0]}" for o in orders] + ["status"]
    # a family depends on g_bar = g tau_bar, not on the row's rate: the rows
    # share one per order pair
    base = _params_from_config(dict(cfg, rate=0.0))
    families = [(o[0], build_uniform_lindblad(base, o)) for o in orders]
    rows = _map_ordered(functools.partial(_uniform_rows, cfg, families), theta_bars, int(cfg["jobs"]))
    table = {name: [row.get(name) for row in rows] for name in columns}
    meta = {"threshold_theta_bar": THRESHOLD_THETA_BAR, "scan": "theta_bar via rate"}
    _emit(cfg, meta, table)


def _map_ordered(fn, points, jobs: int) -> list:
    """The rows of the scan points in scan order, ``fn(chunk)`` giving the
    rows of a contiguous chunk of them.  Each worker gets one chunk, so
    one round trip; with one worker the whole scan is one chunk."""
    # the executor forks all max_workers processes on the first submit
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers <= 1:
        return fn(points)
    from concurrent.futures import ProcessPoolExecutor  # imported on use: off the package's import path

    bounds = [len(points) * k // workers for k in range(workers + 1)]
    chunks = [points[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(fn, chunks) for row in rows]


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the four subcommands on each call."""
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


# the parser of main(), built on its first call; parse_args makes a new
# namespace per call, fock-resolved's append action copies its list and no
# default is ever set after the build, so a parse leaves the parser as it was
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
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
