"""Output checks of the benchmark.

An operation counts as failed when any of these holds:

* a numeric cell differs by more than ``GOLDEN_RTOL`` relative from the
  golden output captured at seed 0 (checked on the untimed seed-0 pass
  every run makes);
* two routes that compute the same linewidth disagree by more than
  ``ROUTE_RTOL`` relative: ``D_main`` vs ``D_slope`` on every
  ``scan-theta`` row, ``D_slope`` vs ``D_eigen`` of every spectrum, and
  exact vs slope vs eigen vs trace at every crosscheck point;
* a cell is NaN or infinite;
* two repeats of one operation in a run are not byte-identical.

Operation outputs are text: the CSV the CLI prints, or the JSON of a
crosscheck point's routes.  ``self_test`` proves the checks catch a
perturbed output.
"""

from __future__ import annotations

import csv
import json
import math

GOLDEN_RTOL = 1e-10
ROUTE_RTOL = 1e-8
ROUTES = ("exact", "slope", "eigen", "trace")


def point_text(result: dict) -> str:
    """Canonical text of a crosscheck result (floats at full precision)."""
    return json.dumps(result, sort_keys=True)


def _parse(text: str, command: str):
    """(metadata, header, rows) of an operation output."""
    if command == "crosscheck":
        return json.loads(text), [], []
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("output lacks the '# {metadata}' line")
    table = list(csv.reader(lines[1:]))
    if not table:
        raise ValueError("output lacks a header row")
    return json.loads(lines[0][2:]), table[0], table[1:]


def _number(cell):
    if isinstance(cell, (int, float)):
        return float(cell)
    if isinstance(cell, str):
        try:
            return float(cell)
        except ValueError:
            return None
    return None


def _leaves(obj, path=""):
    """Every scalar of a JSON value with its path."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _cells(text: str, command: str):
    """Every cell of an output, metadata first, as (location, value)."""
    meta, header, rows = _parse(text, command)
    yield from _leaves(meta, "meta")
    yield "header", ",".join(header)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            yield f"row {i}", f"<{len(row)} cells for {len(header)} columns>"
        for col, cell in zip(header, row):
            yield f"row {i} {col}", cell


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_output(text: str, command: str) -> list[str]:
    """Problems found in one output on its own: NaN cells and route disagreement."""
    try:
        return _check(text, command)[:5]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _check(text: str, command: str) -> list[str]:
    meta, header, rows = _parse(text, command)
    problems = []
    for where, cell in _cells(text, command):
        x = _number(cell)
        if x is not None and not math.isfinite(x):
            problems.append(f"non-finite cell at {where}: {cell!r}")
    if command == "scan-theta":
        i_main, i_slope = header.index("D_main"), header.index("D_slope")
        for i, row in enumerate(rows):
            main, slope = _number(row[i_main]), _number(row[i_slope])
            if (main is None) != (slope is None) or (main is not None and not _close(main, slope, ROUTE_RTOL)):
                problems.append(f"row {i}: D_main {row[i_main]!r} vs D_slope {row[i_slope]!r}")
    elif command == "spectrum":
        if not _close(meta["D_slope"], meta["D_eigen"], ROUTE_RTOL):
            problems.append(f"D_slope {meta['D_slope']!r} vs D_eigen {meta['D_eigen']!r}")
    elif command == "crosscheck":
        values = {r: meta[r] for r in ROUTES if isinstance(meta.get(r), float)}
        spread = max(values.values()) - min(values.values())
        if spread > ROUTE_RTOL * abs(values["exact"]):
            problems.append(f"routes disagree by {spread / abs(values['exact']):.2e}: {values}")
    return problems


def compare_golden(text: str, golden: str, command: str) -> list[str]:
    """Problems of an output against its golden: cell by cell, numbers to GOLDEN_RTOL."""
    try:
        got = list(_cells(text, command))
    except (ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
    want = list(_cells(golden, command))
    if [w for w, _ in got] != [w for w, _ in want]:
        return ["output layout differs from the golden"]
    problems = []
    for (where, a), (_, b) in zip(got, want):
        x, y = _number(a), _number(b)
        if x is not None and y is not None:
            if not _close(x, y, GOLDEN_RTOL):
                problems.append(f"{where}: {a!r} vs golden {b!r}")
        elif a != b:
            problems.append(f"{where}: {a!r} vs golden {b!r}")
    return problems[:5]


def _with_cell(text: str, command: str, where: str, edit) -> str:
    """``text`` with one cell replaced by ``edit(cell)``.

    ``where`` is a metadata key, or a column name for the first data row
    whose cell in that column is a nonzero number.
    """
    meta, header, rows = _parse(text, command)
    if where in meta:
        meta[where] = edit(meta[where])
        if command == "crosscheck":
            return point_text(meta)
    else:
        col = header.index(where)
        row = next(r for r in rows if _number(r[col]))
        row[col] = edit(row[col])
    body = "".join(",".join(r) + "\n" for r in [header, *rows])
    return "# " + json.dumps(meta) + "\n" + body


# the cell each self-test perturbs, per command
PROBE_CELL = {"scan-theta": "D_main", "fock-resolved": "p_n", "spectrum": "value",
              "uniform-convergence": "D_exact", "crosscheck": "exact"}
PROBE_ROUTE = {"scan-theta": "D_slope", "spectrum": "D_slope", "crosscheck": "slope"}


def self_test(outputs: dict, golden: dict, commands: dict) -> list[str]:
    """Perturb seed-0 outputs and require the checks to catch every change.

    Returns the perturbations that went undetected (empty when the gate works).
    """
    def scaled(factor):
        return lambda cell: repr(float(cell) * factor) if isinstance(cell, str) else cell * factor

    missed = []
    for key, text in outputs.items():
        command = commands[key]
        cell = PROBE_CELL[command]
        # one cell moved by 1e-9: beyond the golden tolerance
        if not compare_golden(_with_cell(text, command, cell, scaled(1.0 + 1e-9)), golden[key], command):
            missed.append(f"{key}: {cell} x (1 + 1e-9) passed the golden check")
        if not check_output(_with_cell(text, command, cell, lambda c: "nan"), command):
            missed.append(f"{key}: {cell} = nan passed the check")
        # one route moved by 1e-7: beyond the route tolerance
        route = PROBE_ROUTE.get(command)
        if route and not check_output(_with_cell(text, command, route, scaled(1.0 + 1e-7)), command):
            missed.append(f"{key}: {route} x (1 + 1e-7) passed the route check")
    return missed
