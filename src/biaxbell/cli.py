"""Command-line interface: point evaluation, parameter sweeps, figure-style
sweeps with shape assertions, and the closed-form/oracle crosscheck.

Exit codes: 0 success, 1 usage or I/O error, 2 failed shape assertion,
failed crosscheck, or strict-mode degeneracy.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .crosscheck import (
    BETA_STEPS, DEFAULT_TOL, MUS, NUS, CrosscheckReport, closed_values, default_grid,
    oracle_values, run_crosscheck,
)
from .frame import FrameStatus, mean_spin_columns
from .oracle import _BLOCK, oracle_arrays
from .spincore import SqueezeParams, axis_grid

# each output key is (route, quantity): "in" is the input point, "cf" and "or"
# the quantities of crosscheck.closed_arrays and oracle.oracle_arrays
SWEEP_TABLE = {
    "beta": ("in", "beta"),
    "mu": ("in", "mu"),
    "nu": ("in", "nu"),
    "jx_cf": ("cf", "jx"),
    "jy_cf": ("cf", "jy"),
    "jz_cf": ("cf", "jz"),
    "jx_or": ("or", "jx"),
    "jy_or": ("or", "jy"),
    "jz_or": ("or", "jz"),
    "r_eq9": ("cf", "r_eq9"),
    "r_eq10": ("cf", "r"),
    "theta": ("or", "theta"),
    "phi": ("or", "phi"),
    "jn1sq": ("or", "jn1_sq"),
    "jn2sq": ("or", "jn2_sq"),
    "anticomm": ("or", "anticomm"),
    "lambda_min": ("or", "lambda_min"),
    "chi_min": ("or", "chi_min"),
    "xi2_std": ("or", "xi2_std"),
    "xi2_literal": ("or", "xi2_literal"),
    "concurrence": ("or", "concurrence"),
    "frame_status": ("or", "frame_status"),
    "method": ("or", "method"),
}
SWEEP_COLUMNS = tuple(SWEEP_TABLE)

# point keys in output order; point omits a NaN entry
POINT_TABLE = {
    "beta": ("in", "beta"),
    "mu": ("in", "mu"),
    "nu": ("in", "nu"),
    "alpha": ("in", "alpha"),
    "jx_cf": ("cf", "jx"),
    "jy_cf": ("cf", "jy"),
    "jz_cf": ("cf", "jz"),
    "r_eq9": ("cf", "r_eq9"),
    "r_eq10": ("cf", "r"),
    "jplus_sq_cf": ("cf", "jplus_sq"),
    "jz_sq_cf": ("cf", "jz_sq"),
    "jplus_2jz1_cf": ("cf", "jplus_2jz1"),
    "jn1sq_cf": ("cf", "jn1_sq"),
    "jn2sq_cf": ("cf", "jn2_sq"),
    "anticomm_cf": ("cf", "anticomm"),
    "xi2_std_cf": ("cf", "radical"),            # (4/N) * radical / 2 = radical at N = 2
    "xi2_literal_cf": ("cf", "xi2_literal"),
    "jx_or": ("or", "jx"),
    "jy_or": ("or", "jy"),
    "jz_or": ("or", "jz"),
    "r_or": ("or", "r"),
    "jplus_sq_or": ("or", "jplus_sq"),
    "jz_sq_or": ("or", "jz_sq"),
    "jplus_2jz1_or": ("or", "jplus_2jz1"),
    "theta": ("or", "theta"),
    "phi": ("or", "phi"),
    "frame_status": ("or", "frame_status"),
    "method": ("or", "method"),
    "jn1sq_or": ("or", "jn1_sq"),
    "jn2sq_or": ("or", "jn2_sq"),
    "anticomm_or": ("or", "anticomm"),
    "lambda_min": ("or", "lambda_min"),
    "chi_min": ("or", "chi_min"),
    "xi2_std": ("or", "xi2_std"),
    "xi2_literal": ("or", "xi2_literal"),
    "xi2": ("or", "xi2"),
    "convention": ("in", "convention"),
    "concurrence": ("or", "concurrence"),
    "one_minus_concurrence": ("or", "one_minus_concurrence"),
}

CONVENTIONS = ("standard", "paper-literal")

FIG1_MUS = (0.0, math.pi / 3, math.pi / 2)
FIG1_NU_STEPS = 121
FIG1_BETA_STEPS = 101
FIG2_MUS = (0.0, math.pi / 2, math.pi)
FIG2_NU = -math.pi / 3
FIG2_BETA_STEPS = 201

# strictly below one beyond numerical noise; a coherent point computes to
# 1 - O(1e-16) and must not count as squeezed
SQUEEZED_MARGIN = 1e-12
_SHAPE_SLACK = 1e-12


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # no prefix matching: 'figure --out' must not silently mean '--outdir'
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # bad arguments are usage errors (exit 1), not assertion failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# value parsing and formatting

_PI_FORM = re.compile(
    r"^(?P<sign>[+-]?)(?P<coeff>\d+(?:\.\d*)?)?\s*\*?\s*pi(?:\s*/\s*(?P<den>\d+(?:\.\d*)?))?$"
)


def parse_angle(text: str) -> float:
    """Parse a float, accepting pi forms like 'pi', '-pi/3', '2pi/3'."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    m = _PI_FORM.match(text)
    if not m:
        raise UsageError(f"cannot parse number {text!r}")
    den = float(m.group("den") or 1.0)
    if den == 0.0:
        raise UsageError(f"zero denominator in {text!r}")
    value = math.pi * float(m.group("coeff") or 1.0) / den
    return -value if m.group("sign") == "-" else value


def parse_float_list(text: str) -> list[float]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise UsageError(f"empty list {text!r}")
    return [parse_angle(t) for t in items]


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"cannot parse boolean {text!r}")


def fmt(value) -> str:
    if isinstance(value, complex):
        imag = fmt(value.imag)
        return f"{fmt(value.real)}{'' if imag.startswith('-') else '+'}{imag}j"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def read_config(path: str, known=None) -> dict[str, str]:
    """Plain key=value lines; '#' starts a comment; flags override these;
    a key outside ``known`` (when given) is a usage error."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if known is not None and key not in known:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


# namespace entries that are not options a config file may set
_NOT_CONFIG_KEYS = {"command", "func", "config", "name"}


def _one_of(what: str, choices: tuple[str, ...]):
    """Type function that accepts only ``choices``."""
    def parse(text: str) -> str:
        if text not in choices:
            raise UsageError(f"unknown {what} {text!r}")
        return text
    return parse


def _required(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"missing required option --{name}")


# ---------------------------------------------------------------------------
# row evaluation

def _select(table: dict, routes: dict) -> dict:
    """Each key of ``table`` with its quantity read from its route: one value
    per key from records, one column per key from columns."""
    return {key: routes[route][quantity] for key, (route, quantity) in table.items()}


def sweep_columns(grid: np.ndarray) -> dict[str, list]:
    """All sweep columns over the (4, n) parameter columns of a grid, one list
    per column in grid order, from one mean_spin_columns and one oracle_arrays
    call."""
    routes = {"in": dict(zip(("alpha", "beta", "mu", "nu"), grid)),
              "cf": mean_spin_columns(grid),
              "or": oracle_arrays(grid)}
    return {key: column.tolist() for key, column in _select(SWEEP_TABLE, routes).items()}


def write_rows_csv(blocks, handle, names=SWEEP_COLUMNS) -> None:
    """The named columns of each block as CSV rows under one header, each float in fmt's 17
    significant digits, one pass per block as it comes; no value needs CSV quoting."""
    handle.write(",".join(names) + "\n")
    for columns in blocks:
        values = [columns[name] for name in names]
        line = ",".join("%s" if isinstance(v[0], str) else "%.17g" for v in values) + "\n"
        handle.write("".join([line % row for row in zip(*values)]))


# json's spelling of the floats that repr spells otherwise
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(column: list) -> list[str]:
    """The cells of a column of strings or of floats as json.dumps writes them, by one formatter
    chosen from the first cell; a float column with a sum that is not finite takes json's names."""
    if isinstance(column[0], str):
        return list(map(encode_basestring_ascii, column))
    if math.isfinite(sum(column)):
        return list(map(float.__repr__, column))
    return [_JSON_FLOATS.get(cell, cell) for cell in map(float.__repr__, column)]


def write_rows_json(blocks, handle) -> None:
    """{"columns": [...], "rows": [[...], ...]} as json.dumps(payload, indent=2) writes
    it plus a newline, byte for byte; each block written as it comes, one formatter per column."""
    names = ",\n    ".join(map(encode_basestring_ascii, SWEEP_COLUMNS))
    handle.write('{\n  "columns": [\n    ' + names + '\n  ],\n  "rows": [')
    row = "    [\n      " + ",\n      ".join(["%s"] * len(SWEEP_COLUMNS)) + "\n    ]"
    seam = "\n"
    for columns in blocks:
        cells = [_json_cells(columns[name]) for name in SWEEP_COLUMNS]
        handle.write(seam + ",\n".join([row % r for r in zip(*cells)]))
        seam = ",\n"
    handle.write("]\n}\n" if seam == "\n" else "\n  ]\n}\n")


def _open_out(path: str | None):
    """Context manager for the output; stdout stays open after it."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# shape checks shared by the figure command and the acceptance tests


def monotone_nonincreasing(values) -> bool:
    arr = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(arr) <= _SHAPE_SLACK))


def rise_then_fall(values) -> bool:
    """Interior maximum with nondecreasing approach and nonincreasing exit."""
    arr = np.asarray(values, dtype=float)
    peak = int(np.argmax(arr))
    if peak == 0 or peak == len(arr) - 1:
        return False
    if arr[peak] <= arr[0] + _SHAPE_SLACK or arr[peak] <= arr[-1] + _SHAPE_SLACK:
        return False
    return bool(
        np.all(np.diff(arr[: peak + 1]) >= -_SHAPE_SLACK)
        and np.all(np.diff(arr[peak:]) <= _SHAPE_SLACK)
    )


def squeezed_interval_width(betas, xi2_values) -> float:
    """Width of the beta range where xi^2 sits strictly below one.

    Points within SQUEEZED_MARGIN of one do not count; a coherent endpoint
    evaluates to one only up to rounding and must not be called squeezed.
    """
    betas = np.asarray(betas, dtype=float)
    mask = np.asarray(xi2_values, dtype=float) < 1.0 - SQUEEZED_MARGIN
    if not mask.any():
        return 0.0
    selected = betas[mask]
    return float(selected[-1] - selected[0])


def run_figure(mus, nus, betas, checks):
    """Evaluate a figure's slices and run its checks in order.

    ``checks(curves, nus, betas)`` yields a report line and its list of
    violations per check; ``curves(mu, column)`` is that column of slice mu
    as a (nu, beta) array.  Returns (slices, violations, report_lines);
    slices maps mu to its sweep columns.
    """
    columns = sweep_columns(axis_grid(("mu", "nu", "beta"), mu=mus, nu=nus, beta=betas))
    size = len(nus) * len(betas)
    slices = {mu: {name: column[i * size:(i + 1) * size] for name, column in columns.items()}
              for i, mu in enumerate(mus)}

    def curves(mu, column):
        return np.array(slices[mu][column]).reshape(len(nus), len(betas))

    violations: list[str] = []
    lines: list[str] = []
    for report, failed in checks(curves, nus, betas):
        lines.append(f"{report}: {'FAIL' if failed else 'PASS'}")
        violations += failed
    return slices, violations, lines


def _fig1_checks(curves, nus, betas):
    """r falls from 1 to 0 on every nu line of mu=0 and peaks at
    beta = 1/sqrt(2) on every nu line of mu=pi/2."""
    yield "fig1 mu=0: monotone decrease, endpoints 1 and 0", [
        f"fig1 mu=0 nu={float(nu)!r}: r must fall monotonically from 1 to 0"
        for nu, r in zip(nus, curves(0.0, "r_eq10"))
        if not (monotone_nonincreasing(r) and abs(r[0] - 1.0) <= 1e-12 and abs(r[-1]) <= 1e-12)
    ]
    # r vanishes identically on the lines with sin(nu) = 0, which pass
    yield "fig1 mu=pi/2: unimodal with peak at 1/sqrt(2)", [
        f"fig1 mu=pi/2 nu={float(nu)!r}: r must peak at beta=1/sqrt(2)"
        for nu, r in zip(nus, curves(math.pi / 2, "r_eq10"))
        if abs(math.sin(nu)) > 1e-9
        and not (rise_then_fall(r) and abs(betas[np.argmax(r)] - 1.0 / math.sqrt(2.0)) <= 0.01)
    ]


def _fig2_checks(curves, nus, betas):
    """For each normalization, mu=0 decreases toward a minimum, mu=pi/2 and
    mu=pi rise to an interior maximum and then fall, and the squeezed
    interval at mu=pi/2 is strictly the widest."""
    fall, rise = "decrease toward a minimum", "rise to an interior maximum, then fall"
    for column in ("xi2_std", "xi2_literal"):
        xi2 = [curves(mu, column)[0] for mu in FIG2_MUS]
        shapes = (
            ("mu=0", fall, monotone_nonincreasing(xi2[0]) and xi2[0][0] > xi2[0][-1]),
            ("mu=pi/2", rise, rise_then_fall(xi2[1])),
            ("mu=pi", rise, rise_then_fall(xi2[2])),
        )
        for tag, desc, holds in shapes:
            yield (f"fig2 {tag} ({column}): {desc}",
                   [] if holds else [f"fig2 {tag} ({column}): expected {desc}"])
        widths = [squeezed_interval_width(betas, curve) for curve in xi2]
        yield (f"fig2 squeezed-interval widths ({column}): "
               "mu=0={:.6g}, mu=pi/2={:.6g}, mu=pi={:.6g}".format(*widths),
               [] if widths[1] > max(widths[0], widths[2]) else
               [f"fig2 ({column}): squeezed interval at mu=pi/2 must be strictly widest"])


def run_fig1(nu_steps: int = FIG1_NU_STEPS, beta_steps: int = FIG1_BETA_STEPS):
    """Mean-spin-length sweeps: three mu slices over a (nu, beta) grid."""
    return run_figure(FIG1_MUS, np.linspace(0.0, 2.0 * math.pi, nu_steps),
                      np.linspace(0.0, 1.0, beta_steps), _fig1_checks)


def run_fig2(beta_steps: int = FIG2_BETA_STEPS):
    """Squeezing sweeps at nu = -pi/3 for mu in {0, pi/2, pi}, checked for
    both squeezing normalizations."""
    return run_figure(FIG2_MUS, (FIG2_NU,), np.linspace(0.0, 1.0, beta_steps), _fig2_checks)


FIGURES = {"fig1": run_fig1, "fig2": run_fig2}


# ---------------------------------------------------------------------------
# subcommands


def cmd_point(args: argparse.Namespace) -> int:
    _required(args, "beta", "mu", "nu")
    params = SqueezeParams(beta=args.beta, mu=args.mu, nu=args.nu)
    cf, oracle = closed_values(params), oracle_values(params)
    xi2 = "xi2_std" if args.convention == "standard" else "xi2_literal"
    routes = {
        "in": {**vars(params), "convention": args.convention},
        "cf": {**cf, "xi2_literal": 2.0 * cf["radical"]},
        "or": {**oracle, "xi2": oracle[xi2], "one_minus_concurrence": 1.0 - oracle["concurrence"]},
    }
    # only frame entries can be NaN, and v == v is false for NaN alone
    record = {k: v for k, v in _select(POINT_TABLE, routes).items() if v == v}

    with _open_out(args.out) as handle:
        if args.format == "json":
            # complex values, the only ones json cannot encode, become [re, im]
            handle.write(json.dumps(record, indent=2, default=lambda v: [v.real, v.imag]) + "\n")
        else:
            for key, value in record.items():
                handle.write(f"{key} = {fmt(value)}\n")
    return 0


def _betas(args: argparse.Namespace) -> np.ndarray:
    """The beta axis of sweep and crosscheck."""
    if args.beta_steps < 2:
        raise UsageError("beta-steps must be at least 2")
    for name in ("beta-min", "beta-max"):
        value = getattr(args, name.replace("-", "_"))
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"{name} must lie in [0, 1], got {value!r}")
    if args.beta_min == args.beta_max:
        raise UsageError(f"beta-min and beta-max must differ, got {args.beta_min!r}")
    return np.linspace(args.beta_min, args.beta_max, args.beta_steps)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Evaluate and write one 240-row oracle block at a time, in flat memory; the output opens
    after the first, a later failure keeps the rows before it, --strict exits 2 after all rows."""
    _required(args, "mu-list", "nu-list")
    betas = _betas(args)

    def evaluated(start):
        columns = sweep_columns(grid[:, start:start + _BLOCK])
        degenerate.append(columns["frame_status"].count(FrameStatus.FULLY_DEGENERATE.value))
        return columns

    grid = axis_grid(("mu", "nu", "beta"), mu=args.mu_list, nu=args.nu_list, beta=betas)
    degenerate = []     # the fully-degenerate rows of each block evaluated
    blocks = itertools.chain([evaluated(0)], map(evaluated, range(_BLOCK, grid.shape[1], _BLOCK)))
    with _open_out(args.out) as handle:
        (write_rows_csv if args.format == "csv" else write_rows_json)(blocks, handle)

    if args.strict and sum(degenerate):
        print(f"strict mode: {sum(degenerate)} fully-degenerate points in sweep", file=sys.stderr)
        return 2
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    _required(args, "outdir")
    name, outdir = args.name, args.outdir
    os.makedirs(outdir, exist_ok=True)

    slices, violations, lines = FIGURES[name]()
    for index, (mu, columns) in enumerate(slices.items()):
        path = os.path.join(outdir, f"{name}_mu{index}.csv")
        with _open_out(path) as handle:
            write_rows_csv([columns], handle)
        lines.insert(index, f"{name} slice {index}: mu = {fmt(float(mu))} -> {path}")

    if name == "fig2":
        # squeezing versus concurrence diagnostic, reported but never asserted
        diag = {key: [v for columns in slices.values() for v in columns[key]]
                for key in ("beta", "mu", "nu", "xi2_std", "concurrence")}
        diag["one_minus_concurrence"] = [1.0 - c for c in diag["concurrence"]]
        diag["abs_diff"] = [abs(xi2 - (1.0 - c))
                            for xi2, c in zip(diag["xi2_std"], diag["concurrence"])]
        with _open_out(os.path.join(outdir, "fig2_xi2_concurrence.csv")) as handle:
            write_rows_csv([diag], handle, tuple(diag))
        max_gap = max([0.0] + diag["abs_diff"])
        lines.append(f"fig2 diagnostic: max |xi2_std - (1 - concurrence)| = {max_gap:.6g}")

    with _open_out(os.path.join(outdir, f"{name}_shapes.txt")) as handle:
        handle.write("\n".join(lines) + "\n")

    for line in lines:
        print(line)
    if violations:
        for violation in violations:
            print(f"shape assertion failed: {violation}", file=sys.stderr)
        return 2
    return 0


def _render_crosscheck_text(report: CrosscheckReport, handle) -> None:
    # the scalar entries, in report order; the tables, each sorted, and the failures follow
    for key, value in report.as_dict().items():
        if not isinstance(value, (dict, list)):
            handle.write(f"{key} = {fmt(value)}\n")
    for key in ("nu_candidate_max_diff", "factor_candidate_max_diff", "max_abs_diff_per_quantity"):
        for label, diff in sorted(getattr(report, key).items()):
            handle.write(f"{key.removesuffix('_per_quantity')}[{label}] = {fmt(diff)}\n")
    handle.write(f"failures = {len(report.failures)}\n")
    for failure in report.failures:
        handle.write(
            f"FAIL beta={fmt(failure.beta)} mu={fmt(failure.mu)} nu={fmt(failure.nu)} "
            f"quantity={failure.quantity} closed={failure.closed!r} "
            f"oracle={failure.oracle!r} diff={fmt(failure.diff)}\n"
        )


def cmd_crosscheck(args: argparse.Namespace) -> int:
    report = run_crosscheck(default_grid(_betas(args), args.mu_list, args.nu_list), args.tol)
    with _open_out(args.out) as handle:
        if args.format == "json":
            handle.write(json.dumps(report.as_dict(), indent=2) + "\n")
        else:
            _render_crosscheck_text(report, handle)

    if not report.independent_ok:
        print("crosscheck: convention-independent quantities disagree", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The process-wide parser, built on first use and never changed after."""
    parser = _Parser(
        prog="biaxbell",
        description=(
            "Mean-spin direction, mean-spin length, and spin squeezing of the "
            "two-qubit biaxial plus Bell superposition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config(p):
        p.add_argument("--config", help="key=value file; explicit flags override it")

    def output(p, formats):
        config(p)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", type=_one_of("format", formats), default=formats[0],
                       help=f"{' or '.join(formats)} (default %(default)s)")

    def beta_axis(p, steps):
        p.add_argument("--beta-min", type=parse_angle, default=0.0,
                       help="smallest beta (default %(default)s)")
        p.add_argument("--beta-max", type=parse_angle, default=1.0,
                       help="largest beta (default %(default)s)")
        p.add_argument("--beta-steps", type=int, default=steps,
                       help="number of beta points (default %(default)s)")

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    p_point.add_argument("--beta", type=parse_angle, help="Bell weight in [0, 1]")
    p_point.add_argument("--mu", type=parse_angle, help="shape angle in [0, pi]; accepts pi forms")
    p_point.add_argument("--nu", type=parse_angle,
                         help="relative phase in radians; accepts pi forms")
    p_point.add_argument("--convention", type=_one_of("convention", CONVENTIONS),
                         default=CONVENTIONS[0],
                         help="standard or paper-literal (default %(default)s)")
    output(p_point, ("text", "json"))
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="grid sweep over (mu, nu, beta)")
    beta_axis(p_sweep, 101)
    p_sweep.add_argument("--mu-list", type=parse_float_list, help="comma-separated mu values")
    p_sweep.add_argument("--nu-list", type=parse_float_list, help="comma-separated nu values")
    p_sweep.add_argument(
        "--strict", nargs="?", const=True, default=False, type=parse_bool,
        help="exit 2 when fully-degenerate points occur",
    )
    output(p_sweep, ("csv", "json"))
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="preset sweeps with shape assertions")
    p_fig.add_argument("name", choices=tuple(FIGURES))
    p_fig.add_argument("--outdir", help="directory for the emitted files")
    config(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_check = sub.add_parser("crosscheck", help="closed forms versus operator oracle")
    beta_axis(p_check, BETA_STEPS)
    p_check.add_argument("--mu-list", type=parse_float_list, default=MUS,
                         help="comma-separated mu values (default %(default)s)")
    p_check.add_argument("--nu-list", type=parse_float_list, default=NUS,
                         help="comma-separated nu values (default %(default)s)")
    p_check.add_argument("--tol", type=parse_angle, default=DEFAULT_TOL,
                         help="comparison tolerance (default %(default)s)")
    output(p_check, ("text", "json"))
    p_check.set_defaults(func=cmd_crosscheck)

    parser.commands = sub.choices       # subcommand name -> its own parser
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The whole parser's parse_args(argv), by the parser argv[0] names when it leaves
    no argument over; any other argv, and so every usage error, takes the whole parser."""
    parser = build_parser()
    if argv and argv[0] in parser.commands:
        args, rest = parser.commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        if args.config:
            # config entries enter as flags right after the subcommand name, so
            # later flags still win and each value takes its flag's path
            known = {k.replace("_", "-") for k in vars(args)} - _NOT_CONFIG_KEYS
            config = read_config(args.config, known)
            at = argv.index(args.command) + 1
            flags = [f"--{k}={v}" for k, v in config.items()]
            args = parse_args(argv[:at] + flags + argv[at:])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (UsageError, OSError, ValueError) as exc:
        print(f"biaxbell: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. a --beta-steps too large for its grid to be allocated
        print(f"biaxbell: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"biaxbell: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
