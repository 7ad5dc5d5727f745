"""CLI: parsing, sweep output contract, figures, exit codes, determinism."""
import contextlib
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxbell import FrameStatus, SqueezeParams, build_spin_operators, cli, oracle
from biaxbell.cli import (
    SWEEP_COLUMNS,
    UsageError,
    build_parser,
    fmt,
    main,
    monotone_nonincreasing,
    parse_angle,
    parse_bool,
    parse_float_list,
    read_config,
    rise_then_fall,
    run_fig1,
    run_fig2,
    squeezed_interval_width,
    sweep_columns,
    write_rows_csv,
    write_rows_json,
)
from biaxbell.spincore import axis_grid, param_columns
from test_golden import CASES


# ---------------------------------------------------------------------------
# option parsing


@pytest.mark.parametrize(
    "text,value",
    [
        ("0.25", 0.25),
        ("1e-3", 1e-3),
        ("pi", math.pi),
        ("-pi/3", -math.pi / 3),
        ("2pi/3", 2 * math.pi / 3),
        ("0.5pi", 0.5 * math.pi),
        (" pi / 2 ", math.pi / 2),
    ],
)
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("text", ["", "two", "pie", "pi/", "pi/0", "2pi/0.0"])
def test_parse_angle_rejects(text):
    with pytest.raises(UsageError):
        parse_angle(text)


def test_parse_float_list():
    assert parse_float_list("0,pi/2,1.5") == pytest.approx(
        [0.0, math.pi / 2, 1.5], abs=1e-15
    )
    with pytest.raises(UsageError):
        parse_float_list(",,")


def test_parse_bool():
    assert parse_bool("true") and parse_bool("1") and parse_bool("Yes")
    assert not parse_bool("off")
    with pytest.raises(UsageError):
        parse_bool("maybe")


def test_read_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nbeta-steps = 5\nmu-list=0,pi  # inline\n\n")
    assert read_config(str(cfg)) == {"beta-steps": "5", "mu-list": "0,pi"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no separator here\n")
    with pytest.raises(UsageError):
        read_config(str(bad))
    with pytest.raises(UsageError, match=r"run.cfg:3: unknown key 'mu-list'"):
        read_config(str(cfg), known={"beta-steps"})


@pytest.mark.parametrize(
    "line", ["convention=paper-literal", "beta-step=5", "func=x", "config=other.cfg"]
)
def test_config_unknown_key_exits_one(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"beta-steps=2\n{line}\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--mu-list", "0", "--nu-list", "0",
                 "--out", str(out)])
    assert code == 1
    key = line.partition("=")[0]
    assert f"run.cfg:2: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# each config line set next to the flags that should mean the same thing;
# the last two cases also pass a flag that overrides a config value
@pytest.mark.parametrize(
    "config,argv,flags",
    [
        ("beta=0.6\nmu=pi/3\nnu=pi/4\nconvention=paper-literal\n",
         ["point"],
         ["point", "--beta", "0.6", "--mu", "pi/3", "--nu", "pi/4",
          "--convention", "paper-literal"]),
        ("tol=1e-9\nmu-list=pi/3,pi/2\nnu-list=pi/4\nbeta-steps=3\nformat=json\n",
         ["crosscheck"],
         ["crosscheck", "--tol", "1e-9", "--mu-list", "pi/3,pi/2", "--nu-list", "pi/4",
          "--beta-steps", "3", "--format", "json"]),
        ("beta-max=pi/4\nbeta-steps=3\nmu-list=0,pi/3\nnu-list=0.4\nstrict=no\n"
         "format=json\n",
         ["sweep"],
         ["sweep", "--beta-max", "pi/4", "--beta-steps", "3", "--mu-list", "0,pi/3",
          "--nu-list", "0.4", "--strict=no", "--format", "json"]),
        ("beta=0.6\nmu=pi/3\nnu=pi/4\nformat=json\n",
         ["point", "--mu", "pi/2", "--format", "text"],
         ["point", "--beta", "0.6", "--mu", "pi/2", "--nu", "pi/4"]),
        ("tol=1e-9\nmu-list=pi/3\nnu-list=pi/4\nbeta-steps=3\n",
         ["crosscheck", "--tol", "1e-18", "--beta-steps", "2"],
         ["crosscheck", "--tol", "1e-18", "--mu-list", "pi/3", "--nu-list", "pi/4",
          "--beta-steps", "2"]),
    ],
    ids=["point", "crosscheck", "sweep", "point-flag-wins", "crosscheck-flag-wins"],
)
def test_config_values_parse_like_flags(tmp_path, capsys, config, argv, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code = main([*argv, "--config", str(cfg)])
    from_config = capsys.readouterr()
    assert code == main(flags)
    assert from_config.out
    assert from_config == capsys.readouterr()


@pytest.mark.parametrize(
    "argv,config,code,message",
    [
        (["sweep"], "beta-steps=2\nmu-list=pi/2\nnu-list=0\nstrict=yes\n", 2,
         "fully-degenerate points"),
        (["sweep"], "beta-steps=2\nmu-list=0\nnu-list=0\nformat=xml\n", 1,
         "unknown format 'xml'"),
        (["point"], "beta=0\nmu=0\nnu=0\nformat=xml\n", 1, "unknown format 'xml'"),
        # an invalid value fails even where a flag overrides it
        (["point", "--format", "text"], "beta=0\nmu=0\nnu=0\nformat=xml\n", 1,
         "unknown format 'xml'"),
        (["point"], "beta=0\nmu=0\nnu=pi/0\n", 1, "zero denominator in 'pi/0'"),
        (["crosscheck"], "beta-steps=2\nformat=csv\n", 1, "unknown format 'csv'"),
        (["figure", "fig2"], "", 1, "missing required option --outdir"),
    ],
    ids=["sweep-strict", "sweep-format", "point-format", "point-format-overridden",
         "point-zero-denominator", "crosscheck-format", "figure-outdir"],
)
def test_config_value_errors(tmp_path, capsys, argv, config, code, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main([*argv, "--config", str(cfg)]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_config_key_of_another_subcommand_exits_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strict=yes\n")      # valid for sweep, not for point
    assert main(["point", "--beta", "0", "--mu", "0", "--nu", "0",
                 "--config", str(cfg)]) == 1


def test_parser_is_built_once_per_process(capsys):
    assert build_parser() is build_parser()
    for _ in range(100):
        assert main(["point", "--beta", "0"]) == 1
    assert "missing required option --mu" in capsys.readouterr().err
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("name", list(CASES))
def test_dispatch_parses_as_the_whole_parser(monkeypatch, name):
    argv = CASES[name].split()
    whole = build_parser().parse_args(argv)
    # a case argv leaves nothing over, so it never reaches the whole parser
    monkeypatch.setattr(build_parser(), "parse_args", None)
    # repr takes a NaN entry as equal to itself and also compares the key order
    assert repr(vars(cli.parse_args(argv))) == repr(vars(whole))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["sweep", "-h"], ["no-such-command"], ["sweep", "--no-such-option"],
    ["sweep", "--mu-list", "0", "point"], ["--beta-steps", "x"], ["sweep", "--beta-steps", "x"],
    ["figure"],
])
def test_main_exits_as_the_whole_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    whole = int(exc.value.code or 0), *capsys.readouterr()
    assert (main(argv), *capsys.readouterr()) == whole


def test_config_values_do_not_leak_into_later_calls(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta-max=0.5\nformat=json\nstrict=yes\n")
    plain = ["sweep", "--mu-list", "pi/2", "--nu-list", "0", "--beta-steps", "3"]
    alone, after = tmp_path / "alone.csv", tmp_path / "after.csv"
    assert main([*plain, "--out", str(alone)]) == 0
    assert main([*plain, "--config", str(cfg), "--out", str(tmp_path / "config.json")]) == 2
    assert main([*plain, "--out", str(after)]) == 0
    assert after.read_bytes() == alone.read_bytes()


# ---------------------------------------------------------------------------
# shape helpers


def test_monotone_nonincreasing():
    assert monotone_nonincreasing([3.0, 2.0, 2.0, 1.0])
    assert not monotone_nonincreasing([3.0, 2.0, 2.5, 1.0])


def test_rise_then_fall():
    assert rise_then_fall([0.0, 0.5, 1.0, 0.4, 0.1])
    assert not rise_then_fall([1.0, 0.5, 0.2])          # peak at the edge
    assert not rise_then_fall([0.0, 0.4, 0.2, 0.6, 0.1])  # two humps
    assert not rise_then_fall([0.3, 0.3, 0.3])


def test_squeezed_interval_width():
    betas = np.linspace(0.0, 1.0, 11)
    xi2 = np.ones(11)
    assert squeezed_interval_width(betas, xi2) == 0.0
    xi2[3:7] = 0.5
    assert squeezed_interval_width(betas, xi2) == pytest.approx(0.3, abs=1e-12)
    # values within rounding noise of one do not count as squeezed
    assert squeezed_interval_width(betas, np.full(11, 1.0 - 1e-15)) == 0.0


# ---------------------------------------------------------------------------
# row evaluation


def _row(params):
    return {name: column[0] for name, column in sweep_columns(param_columns([params])).items()}


def test_row_has_exact_columns():
    row = _row(SqueezeParams(beta=0.3, mu=1.0, nu=0.5))
    assert tuple(row.keys()) == SWEEP_COLUMNS


def test_degenerate_row_moment_columns_are_nan():
    row = _row(SqueezeParams(beta=1.0, mu=1.0, nu=0.5))
    assert row["frame_status"] == "fully-degenerate"
    assert row["method"] == "all-directions"
    assert math.isnan(row["jn1sq"]) and math.isnan(row["jn2sq"])
    assert math.isnan(row["anticomm"])
    assert row["chi_min"] == 0.0


# ---------------------------------------------------------------------------
# subcommands through main()


def test_point_text_output(capsys):
    code = main(["point", "--beta", "0", "--mu", "0", "--nu", "0"])
    out = capsys.readouterr().out
    assert code == 0
    record = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        record[key] = value
    assert float(record["r_eq9"]) == pytest.approx(1.0, abs=1e-12)
    assert float(record["xi2_std"]) == pytest.approx(1.0, abs=1e-10)
    assert float(record["concurrence"]) == pytest.approx(0.0, abs=1e-12)


def test_point_degenerate_record(capsys):
    code = main(["point", "--beta", "1", "--mu", "0.5", "--nu", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "frame_status = fully-degenerate" in out
    assert "method = all-directions" in out
    assert "concurrence = 0.99999" in out or "concurrence = 1\n" in out


def test_point_json_output(capsys):
    code = main(
        ["point", "--beta", "0.6", "--mu", "pi/3", "--nu", "pi/4", "--format", "json"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["r_eq10"] == pytest.approx(0.8502611363575311, abs=1e-13)
    # complex entries serialize as [re, im]
    assert record["jplus_2jz1_cf"][1] == pytest.approx(-0.3035786553761644, abs=1e-13)


POINT_KEYS = [
    "beta", "mu", "nu", "alpha",
    "jx_cf", "jy_cf", "jz_cf", "r_eq9", "r_eq10",
    "jplus_sq_cf", "jz_sq_cf", "jplus_2jz1_cf",
    "jn1sq_cf", "jn2sq_cf", "anticomm_cf", "xi2_std_cf", "xi2_literal_cf",
    "jx_or", "jy_or", "jz_or", "r_or", "jplus_sq_or", "jz_sq_or", "jplus_2jz1_or",
    "theta", "phi", "frame_status", "method",
    "jn1sq_or", "jn2sq_or", "anticomm_or",
    "lambda_min", "chi_min", "xi2_std", "xi2_literal", "xi2", "convention",
    "concurrence", "one_minus_concurrence",
]
# present only for a route with a transverse frame
FRAME_KEYS = {"jn1sq_cf", "jn2sq_cf", "anticomm_cf", "xi2_std_cf", "xi2_literal_cf",
              "jn1sq_or", "jn2sq_or", "anticomm_or"}


@pytest.mark.parametrize(
    "argv,keys,count",
    [
        (["--beta", "0.6", "--mu", "pi/3", "--nu", "pi/4"], POINT_KEYS, 39),
        (["--beta", "1", "--mu", "0.5", "--nu", "0.3"],
         [k for k in POINT_KEYS if k not in FRAME_KEYS], 31),
    ],
    ids=["regular", "fully-degenerate"],
)
def test_point_key_order(capsys, argv, keys, count):
    assert len(keys) == count
    assert main(["point", *argv, "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys
    assert main(["point", *argv]) == 0
    assert [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()] == keys


def test_point_complex_values_in_text_and_json(capsys):
    argv = ["point", "--beta", "0.6", "--mu", "pi/3", "--nu", "pi/4"]
    assert main([*argv, "--format", "json"]) == 0
    re, im = json.loads(capsys.readouterr().out)["jplus_2jz1_cf"]
    assert main(argv) == 0
    text = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert im < 0.0 and text["jplus_2jz1_cf"] == f"{re:.17g}{im:.17g}j"
    assert text["jplus_sq_cf"].endswith("+0j")


def test_point_requires_parameters(capsys):
    assert main(["point", "--beta", "0.5"]) == 1
    assert "missing required option" in capsys.readouterr().err


def test_point_rejects_unknown_convention(capsys):
    code = main(
        ["point", "--beta", "0", "--mu", "0", "--nu", "0", "--convention", "fancy"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--beta", "0", "--mu", "0", "--nu", "0"],
        ["crosscheck", "--beta-steps", "2", "--mu-list", "0", "--nu-list", "0"],
        ["sweep", "--beta-steps", "2", "--mu-list", "0", "--nu-list", "0"],
    ],
)
def test_unknown_format_exits_one(capsys, argv):
    assert main(argv + ["--format", "xml"]) == 1
    captured = capsys.readouterr()
    assert "unknown format 'xml'" in captured.err
    assert captured.out == ""


def test_point_rejects_out_of_domain(capsys):
    code = main(["point", "--beta", "1.5", "--mu", "0", "--nu", "0"])
    assert code == 1


def test_point_rejects_zero_denominator(capsys):
    assert main(["point", "--beta", "0", "--mu", "0", "--nu", "pi/0"]) == 1
    assert capsys.readouterr().err == "biaxbell: error: zero denominator in 'pi/0'\n"


def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--beta-steps", "3", "--mu-list", "0,pi/2", "--nu-list", "pi/4",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 2 * 1 * 3
    first = dict(zip(SWEEP_COLUMNS, lines[1].split(",")))
    assert float(first["beta"]) == 0.0
    assert float(first["r_eq9"]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_row_order_lexicographic(tmp_path):
    out = tmp_path / "sweep.csv"
    main(
        ["sweep", "--beta-steps", "2", "--mu-list", "0,1", "--nu-list", "0,2",
         "--out", str(out)]
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    track = [(float(r[1]), float(r[2]), float(r[0])) for r in rows]
    assert track == sorted(track)


def test_sweep_strict_flags_degenerate_rows(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--beta-steps", "2", "--mu-list", "pi/2", "--nu-list", "0",
         "--strict", "--out", str(out)]
    )
    assert code == 2
    assert "fully-degenerate" in capsys.readouterr().err
    assert out.exists()      # output still written before the strict exit


def _fail_on_call(monkeypatch, failing):
    """Make sweep_columns raise an internal-check error on call number failing."""
    calls = []
    real = cli.sweep_columns

    def wrapped(grid):
        calls.append(grid.shape[1])
        if len(calls) == failing:
            raise RuntimeError("boom")
        return real(grid)

    monkeypatch.setattr(cli, "sweep_columns", wrapped)
    return calls


# 2 x 2 x 61 = 244 rows: one full block of 240 rows and one of 4
_TWO_BLOCK_SWEEP = ["sweep", "--mu-list", "0,pi/3", "--nu-list", "0.3,1", "--beta-steps", "61"]


def test_sweep_failing_in_its_first_block_writes_nothing(tmp_path, monkeypatch, capsys):
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"earlier output\n")
    calls = _fail_on_call(monkeypatch, 1)
    assert main([*_TWO_BLOCK_SWEEP, "--out", str(fresh)]) == 2
    assert capsys.readouterr().err == "biaxbell: internal check failed: boom\n"
    assert not fresh.exists()
    calls.clear()
    assert main([*_TWO_BLOCK_SWEEP, "--out", str(kept)]) == 2
    assert capsys.readouterr().err == "biaxbell: internal check failed: boom\n"
    assert kept.read_bytes() == b"earlier output\n"
    assert calls == [240]


def test_sweep_failing_after_its_first_block_keeps_the_rows_before(tmp_path, monkeypatch,
                                                                   capsys):
    whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
    assert main([*_TWO_BLOCK_SWEEP, "--out", str(whole)]) == 0
    lines = whole.read_text().splitlines(keepends=True)
    assert len(lines) == 1 + 244
    calls = _fail_on_call(monkeypatch, 2)
    assert main([*_TWO_BLOCK_SWEEP, "--out", str(cut)]) == 2
    assert capsys.readouterr().err == "biaxbell: internal check failed: boom\n"
    assert cut.read_text() == "".join(lines[:1 + 240])
    assert calls == [240, 4]


def test_csv_writer_formats_as_the_csv_module_does():
    # one "%.17g" pass over the columns writes what csv.writer wrote from
    # fmt(value) row by row, NaN cells and signed zeros included
    columns = {
        "beta": [0.0, 0.1, 1.0 / 3.0, 1.0],
        "lambda_min": [-0.0, 5e-324, 1e300, 0.2368194536064644],
        "jn1sq": [math.nan, 0.5, math.nan, -math.inf],
        "frame_status": ["regular", "polar-degenerate", "fully-degenerate", "regular"],
    }
    names = tuple(columns)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(names)
    for row in zip(*columns.values()):
        writer.writerow([fmt(value) for value in row])
    written = io.StringIO()
    write_rows_csv([columns], written, names)
    assert written.getvalue() == expected.getvalue()
    assert "nan" in written.getvalue().splitlines()[1].split(",")
    written = io.StringIO()
    write_rows_csv(_two_blocks(columns, 3), written, names)
    assert written.getvalue() == expected.getvalue()


def _two_blocks(columns, cut):
    """columns as two blocks of columns, split before row cut."""
    return [{name: column[:cut] for name, column in columns.items()},
            {name: column[cut:] for name, column in columns.items()}]



def _json_test_columns(rows):
    """rows rows of every sweep column: NaN, +-inf, signed zeros and
    subnormals in the float columns, every frame_status and method."""
    cells = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072e-309,
             0.1, 1.0 / 3.0, -1e300, 0.2368194536064644]
    words = {"frame_status": [s.value for s in FrameStatus],
             "method": [oracle.METHOD_TRANSVERSE, oracle.METHOD_ALL_DIRECTIONS]}
    return {
        name: [(words.get(name) or cells)[(7 * i + k) % len(words.get(name) or cells)]
               for i in range(rows)]
        for k, name in enumerate(SWEEP_COLUMNS)
    }


@pytest.mark.parametrize(
    "columns",
    [
        _json_test_columns(1),
        _json_test_columns(23),
        # regular, polar-degenerate and fully-degenerate rows with their NaN cells
        sweep_columns(axis_grid(("mu", "nu", "beta"), mu=[0.0, math.pi / 2], nu=[0.0, 1.0],
                                beta=np.linspace(0.0, 1.0, 9))),
    ],
    ids=["one-row", "special-cells", "mixed-status-sweep"],
)
def test_json_writer_writes_what_json_dump_writes(columns):
    # one formatter per column writes json.dump's bytes: NaN and +-Infinity,
    # signed zeros, the shortest repr of every float and ASCII-escaped strings
    payload = {
        "columns": list(SWEEP_COLUMNS),
        "rows": [list(row) for row in zip(*(columns[name] for name in SWEEP_COLUMNS))],
    }
    expected = io.StringIO()
    json.dump(payload, expected, indent=2)
    expected.write("\n")
    written = io.StringIO()
    write_rows_json([columns], written)
    assert written.getvalue() == expected.getvalue()
    if len(columns["frame_status"]) > 1:
        assert set(columns["frame_status"]) == {s.value for s in FrameStatus}
        written = io.StringIO()
        write_rows_json(_two_blocks(columns, len(columns["frame_status"]) // 2), written)
        assert written.getvalue() == expected.getvalue()


@pytest.mark.parametrize("cells", [
    pytest.param([0.5, math.nan, -2.0, 1e-300], id="nan"),
    pytest.param([0.5, math.inf, -2.0, 1e-300], id="inf"),
    pytest.param([0.5, -math.inf, -2.0, 1e-300], id="minus-inf"),
    pytest.param([math.nan, math.inf, -math.inf, 0.1], id="nan-and-both-infs"),
    pytest.param([-0.0, 0.0, -0.0, 5e-324], id="signed-zeros"),
    # finite cells whose sum overflows to inf: the column is mapped all the same
    pytest.param([1.7976931348623157e308, 1e308, -1.5, 0.25], id="finite-sum-overflows"),
])
def test_json_writer_special_floats_match_json_dumps(cells):
    # every float column holds the cells, rotated by its position, in one
    # block and in two blocks of which only one may hold a special value
    columns = {name: [FrameStatus.REGULAR.value] * len(cells) if name == "frame_status"
               else [oracle.METHOD_TRANSVERSE] * len(cells) if name == "method"
               else cells[k % len(cells):] + cells[:k % len(cells)]
               for k, name in enumerate(SWEEP_COLUMNS)}
    payload = {"columns": list(SWEEP_COLUMNS),
               "rows": [list(row) for row in zip(*(columns[name] for name in SWEEP_COLUMNS))]}
    expected = json.dumps(payload, indent=2) + "\n"
    for blocks in ([columns], _two_blocks(columns, 2)):
        written = io.StringIO()
        write_rows_json(blocks, written)
        assert written.getvalue() == expected


def _spin1_with(**operators):
    ops = build_spin_operators(1.0)
    replaced = dataclasses.replace(ops, **{k: getattr(ops, v) for k, v in operators.items()})
    return lambda: replaced


# with mu = pi/2 first, rows 0-5 (nu = 0, and beta = 0 at nu = 1) have no
# transverse plane and row 6 is the first that has one
@pytest.mark.parametrize(
    "patches,mus",
    [
        ({"TRANSVERSE_AGREE_TOL": -1.0}, "pi/2,0,pi/3"),
        ({"ALL_DIRECTIONS_AGREE_TOL": -1.0}, "pi/2,0,pi/3"),
        # the transverse gate of row 0 comes before the all-directions gate
        # of the fully-degenerate row 4 (beta = 1)
        ({"TRANSVERSE_AGREE_TOL": -1.0, "ALL_DIRECTIONS_AGREE_TOL": -1.0}, "0,pi/2"),
        # as test_moments_reality_check_still_fires: <J+> is not real
        ({"_spin1": _spin1_with(jx="jplus")}, "pi/2,0,pi/3"),
        # row 0 fails the all-directions gate and row 6 the first-moment check,
        # which comes earlier in a row: grid order wins over check order
        ({"_spin1": _spin1_with(jy="jplus")}, "pi/2,0,pi/3"),
    ],
    ids=["transverse-tol", "all-directions-tol", "both-tols", "jx-not-hermitian",
         "jy-not-hermitian"],
)
def test_gates_fire_inside_a_multi_row_sweep(monkeypatch, capsys, patches, mus):
    for name, value in patches.items():
        monkeypatch.setattr(oracle, name, value)
    # the message that evaluating the rows one at a time raises first
    grid = axis_grid(("mu", "nu", "beta"), mu=parse_float_list(mus), nu=[0.0, 1.0],
                     beta=np.linspace(0.0, 1.0, 5))
    for _, beta, mu, nu in grid.T.tolist():
        try:
            oracle.evaluate_oracle(SqueezeParams(beta=beta, mu=mu, nu=nu))
        except RuntimeError as exc:
            expected = str(exc)
            break
    else:
        pytest.fail("no row fails the patched checks")
    capsys.readouterr()
    argv = ["sweep", "--mu-list", mus, "--nu-list", "0,1", "--beta-steps", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"biaxbell: internal check failed: {expected}\n"


@pytest.mark.parametrize(
    "patches,mus",
    [
        ({"TRANSVERSE_AGREE_TOL": -1.0}, "pi/2,0,pi/3"),
        ({"ALL_DIRECTIONS_AGREE_TOL": -1.0}, "pi/2,0,pi/3"),
        ({"TRANSVERSE_AGREE_TOL": -1.0, "ALL_DIRECTIONS_AGREE_TOL": -1.0}, "0,pi/2"),
    ],
    ids=["transverse-tol", "all-directions-tol", "both-tols"],
)
def test_gates_fire_without_warnings(monkeypatch, capsys, patches, mus):
    # a negative tol makes the certificate's pivots non-positive; rejecting a
    # row must not divide by them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        test_gates_fire_inside_a_multi_row_sweep(monkeypatch, capsys, patches, mus)


# fig1's mu slices with fully-degenerate rows (mu = pi/2, nu = 0; beta = 1)
_FIG1_SHAPED = ["sweep", "--mu-list", "0,pi/3,pi/2", "--nu-list", "0,pi/4,2", "--beta-steps", "11"]
_EIGEN_MIN, _CONCURRENCES, _GRAM = oracle._eigen_min, oracle._concurrences, oracle._gram
# every row without a mean spin: mu = pi/2 with nu in {0, pi}
_FRAMELESS = ["sweep", "--mu-list", "pi/2", "--nu-list", "0,pi", "--beta-steps", "11"]


def _larger_eigenvalue(m1, m2, jn1_sq, jn2_sq, anticomm):
    lam, chi = _EIGEN_MIN(m1, m2, jn1_sq, jn2_sq, anticomm)
    return (jn1_sq - m1 * m1) + (jn2_sq - m2 * m2) - lam, (chi + math.pi / 2) % math.pi


def _eigen_min_low(*moments):
    lam, chi = _EIGEN_MIN(*moments)
    return lam - 2.0 * oracle.TRANSVERSE_AGREE_TOL, chi


def _concurrence_negated(states):
    # lam = (1 + C)/2, the middle eigenvalue of the second-moment table
    return -_CONCURRENCES(states)


def _concurrence_high(states):
    # lam - 2 tol
    return _CONCURRENCES(states) + 4.0 * oracle.ALL_DIRECTIONS_AGREE_TOL


def _concurrence_nan(states):
    return np.full(len(states), math.nan)


def _gram_off_diagonal_halved(split):
    return _GRAM(split) * ((np.eye(split.shape[1]) + 1.0) / 2.0)


@pytest.mark.parametrize(
    "owner,name,mutant",
    [
        (oracle, "_eigen_min", _larger_eigenvalue),
        (oracle, "_eigen_min", _eigen_min_low),
        (oracle, "_concurrences", _concurrence_negated),
        (oracle, "_concurrences", _concurrence_high),
        (oracle, "_concurrences", _concurrence_nan),
        (oracle, "_gram", _gram_off_diagonal_halved),
    ],
    ids=["transverse-larger-eigenvalue", "transverse-lambda-minus-2tol",
         "all-directions-middle-eigenvalue", "all-directions-lambda-minus-2tol",
         "all-directions-nan", "gram-without-doubling"],
)
def test_certificate_rejects_wrong_minima(monkeypatch, capsys, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant)
    assert main(_FIG1_SHAPED) == 2
    assert "minimization mismatch: " in capsys.readouterr().err


def _same_output_without(monkeypatch, capsys, runs, lookups):
    """Each run exits 0 and prints the same stdout with every (owner, name)
    of lookups replaced by a function that raises."""
    expected = []
    for argv in runs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def never(*args, **kwargs):
        raise AssertionError("the pipeline ran a function it should not")

    for owner, name in lookups:
        monkeypatch.setattr(owner, name, never)
    for argv, out in zip(runs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def test_pipeline_never_runs_the_scan(monkeypatch, capsys):
    # the certificate gates both minimizations; the bisection is only the
    # reference behind min_transverse_variance_scan and _sphere_scan
    runs = [_FIG1_SHAPED, ["crosscheck"], ["point", "--beta", "1", "--mu", "0", "--nu", "0"]]
    _same_output_without(monkeypatch, capsys, runs, [(oracle, "_bisect_min")])


def test_pipeline_runs_no_eigen_routine(monkeypatch, capsys):
    # rows without a mean spin take lam = (1 - C)/2 and the certificate reads
    # no minimizer, so no CLI path calls LAPACK's symmetric eigensolvers
    runs = [_FIG1_SHAPED, _FRAMELESS, ["crosscheck"],
            ["point", "--beta", "1", "--mu", "0", "--nu", "0"]]
    _same_output_without(monkeypatch, capsys, runs,
                         [(np.linalg, "eigh"), (np.linalg, "eigvalsh")])


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--beta-steps", "2", "--mu-list", "0", "--nu-list", "1",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == list(SWEEP_COLUMNS)
    assert len(payload["rows"]) == 2


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta-steps=2\nmu-list=0\nnu-list=0.4\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert len(out_a.read_text().splitlines()) == 3
    # explicit flag wins over the file value
    assert main(
        ["sweep", "--config", str(cfg), "--beta-steps", "4", "--out", str(out_b)]
    ) == 0
    assert len(out_b.read_text().splitlines()) == 5


def test_sweep_rejects_bad_values(tmp_path):
    assert main(["sweep", "--beta-steps", "1", "--mu-list", "0", "--nu-list", "0"]) == 1
    assert main(["sweep", "--beta-steps", "3", "--nu-list", "0"]) == 1


@pytest.mark.parametrize("steps", ["1", "0"])
def test_crosscheck_rejects_short_beta_axis(capsys, steps):
    assert main(["crosscheck", "--beta-steps", steps, "--mu-list", "0", "--nu-list", "0"]) == 1
    assert "beta-steps must be at least 2" in capsys.readouterr().err


def _run_main(argv):
    """(exit code, stderr, recorded warnings) of main(argv); stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("command", ["sweep", "crosscheck"])
@pytest.mark.parametrize(
    "bounds,message",
    [
        (["--beta-max", "inf"], "beta-max must lie in [0, 1], got inf"),
        (["--beta-min", "nan"], "beta-min must lie in [0, 1], got nan"),
        (["--beta-max", "2"], "beta-max must lie in [0, 1], got 2.0"),
        (["--beta-min=-1"], "beta-min must lie in [0, 1], got -1.0"),
        (["--beta-min", "1e308", "--beta-max=-1e308"], "beta-min must lie in [0, 1], got 1e+308"),
        # equal bounds would repeat every row (and every crosscheck failure)
        (["--beta-min", "0.5", "--beta-max", "0.5"], "beta-min and beta-max must differ, got 0.5"),
        (["--beta-min", "1"], "beta-min and beta-max must differ, got 1.0"),
        (["--beta-max", "0"], "beta-min and beta-max must differ, got 0.0"),
    ],
)
def test_beta_bounds_outside_unit_interval(command, bounds, message):
    # rejected before the beta axis is built, so numpy never warns
    code, err, caught = _run_main(
        [command, "--mu-list", "0", "--nu-list", "0", "--beta-steps", "3", *bounds]
    )
    assert code == 1
    assert err == f"biaxbell: error: {message}\n"
    assert caught == []


# (subcommand, option) pairs that were parsed but never read; '--out' on
# figure must not be taken as an abbreviation of '--outdir'
@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--beta", "0", "--mu", "0", "--nu", "0", "--threads", "2"],
        ["crosscheck", "--beta-steps", "2", "--threads", "2"],
        ["sweep", "--beta-steps", "2", "--mu-list", "0", "--nu-list", "0",
         "--convention", "standard"],
        ["figure", "fig2", "--outdir", "OUTDIR", "--convention", "standard"],
        ["figure", "fig2", "--outdir", "OUTDIR", "--format", "csv"],
        ["figure", "fig2", "--outdir", "OUTDIR", "--out", "x.csv"],
        ["figure", "fig2", "--outdir", "OUTDIR", "--threads", "2"],
        ["sweep", "--beta-steps", "2", "--mu-list", "0", "--nu-list", "0", "--threads", "2"],
    ],
)
def test_removed_options_exit_one(tmp_path, capsys, argv):
    argv = [str(tmp_path) if a == "OUTDIR" else a for a in argv]
    assert main(argv) == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "crosscheck"])
def test_grid_too_large_to_allocate_exits_one(monkeypatch, command):
    # numpy raises a MemoryError subclass when a grid cannot be allocated
    # (e.g. --beta-steps 100000000000); no test asks for a real huge array
    def linspace(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(np, "linspace", linspace)
    code, err, _ = _run_main(
        [command, "--mu-list", "0", "--nu-list", "0", "--beta-steps", "100000000000"]
    )
    assert code == 1
    assert err == (
        "biaxbell: error: out of memory: "
        "Unable to allocate 745. GiB for an array with shape (100000000000,)\n"
    )


def test_sweep_unwritable_path(capsys):
    code = main(
        ["sweep", "--beta-steps", "2", "--mu-list", "0", "--nu-list", "0",
         "--out", "/nonexistent-dir/x.csv"]
    )
    assert code == 1


def test_crosscheck_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["crosscheck", "--beta-steps", "3", "--mu-list", "pi/3", "--nu-list",
         "pi/4", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["nu_sign_hypothesis"] == "nu-negated"
    assert payload["independent_ok"] is True


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_crosscheck_rejects_bad_tol(capsys, tol):
    assert main(["crosscheck", "--tol", tol, "--beta-steps", "2"]) == 1
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_crosscheck_text_summary(capsys):
    code = main(["crosscheck", "--beta-steps", "3", "--mu-list", "pi/2",
                 "--nu-list", "pi/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "factor_hypothesis = half-corrected" in out
    assert "failures = 0" in out


# ---------------------------------------------------------------------------
# figures


def test_fig1_small_grid_passes():
    slices, violations, lines = run_fig1(nu_steps=9, beta_steps=21)
    assert violations == []
    assert len(slices) == 3
    assert any("PASS" in line for line in lines)


def test_fig2_small_grid_flags_only_mu_pi():
    slices, violations, lines = run_fig2(beta_steps=41)
    assert len(slices) == 3
    # the mu=pi family is a rotated copy of mu=0, so its curve decreases
    # monotonically and the interior-maximum expectation fails; nothing else
    assert violations
    assert all("mu=pi " in v or "mu=pi)" in v or "mu=pi (" in v for v in violations)
    for v in violations:
        assert "mu=pi/2" not in v and "mu=0" not in v


def test_figure_reports_are_pinned():
    # exact report and violation text, order and verdicts of both presets
    _, violations, lines = run_fig1(nu_steps=9, beta_steps=21)
    assert lines == [
        "fig1 mu=0: monotone decrease, endpoints 1 and 0: PASS",
        "fig1 mu=pi/2: unimodal with peak at 1/sqrt(2): PASS",
    ]
    assert violations == []

    _, violations, lines = run_fig2(beta_steps=41)
    rise = "rise to an interior maximum, then fall"
    assert lines == [
        "fig2 mu=0 (xi2_std): decrease toward a minimum: PASS",
        f"fig2 mu=pi/2 (xi2_std): {rise}: PASS",
        f"fig2 mu=pi (xi2_std): {rise}: FAIL",
        "fig2 squeezed-interval widths (xi2_std): mu=0=0.975, mu=pi/2=1, mu=pi=0.975: PASS",
        "fig2 mu=0 (xi2_literal): decrease toward a minimum: PASS",
        f"fig2 mu=pi/2 (xi2_literal): {rise}: PASS",
        f"fig2 mu=pi (xi2_literal): {rise}: FAIL",
        "fig2 squeezed-interval widths (xi2_literal): mu=0=0.275, mu=pi/2=1, mu=pi=0.275: PASS",
    ]
    assert violations == [
        f"fig2 mu=pi (xi2_std): expected {rise}",
        f"fig2 mu=pi (xi2_literal): expected {rise}",
    ]


def _crafted_sweep(monkeypatch, mus, lines_per_mu):
    """Make run_figure read crafted curves: lines_per_mu[i][column] holds the
    beta curves of slice mus[i], one per nu line, in (mu, nu, beta) row order."""
    def fake(grid):
        columns = {name: [v for lines in lines_per_mu for line in lines[name] for v in line]
                   for name in lines_per_mu[0]}
        assert all(len(c) == grid.shape[1] for c in columns.values())
        assert list(dict.fromkeys(grid[2].tolist())) == list(mus)
        return columns
    monkeypatch.setattr(cli, "sweep_columns", fake)


def test_figure_fail_paths_are_pinned(monkeypatch):
    # fig1 on 5 nu lines (0, pi/2, pi, 3pi/2, 2pi) and 8 betas (k/7; 5/7 lies
    # within 0.01 of 1/sqrt(2))
    fall = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.1, 0.0]
    off_peak = [0.0, 0.2, 0.5, 0.9, 0.6, 0.4, 0.2, 0.1]     # peaks at beta = 3/7
    on_peak = [0.0, 0.1, 0.2, 0.4, 0.6, 0.9, 0.5, 0.1]      # peaks at beta = 5/7
    mu0 = [fall, [1.0, 0.8, 0.9, 0.5, 0.4, 0.3, 0.1, 0.0], fall, fall, fall]
    # sin(nu) = 0 on lines 0, 2 and 4: r vanishes there, so any curve passes
    mu_half = [fall, off_peak, fall, on_peak, fall]
    _crafted_sweep(monkeypatch, cli.FIG1_MUS,
                   [{"r_eq10": lines} for lines in (mu0, [fall] * 5, mu_half)])
    slices, violations, lines = run_fig1(nu_steps=5, beta_steps=8)
    assert list(slices) == list(cli.FIG1_MUS)
    assert lines == [
        "fig1 mu=0: monotone decrease, endpoints 1 and 0: FAIL",
        "fig1 mu=pi/2: unimodal with peak at 1/sqrt(2): FAIL",
    ]
    assert violations == [
        "fig1 mu=0 nu=1.5707963267948966: r must fall monotonically from 1 to 0",
        "fig1 mu=pi/2 nu=1.5707963267948966: r must peak at beta=1/sqrt(2)",
    ]

    # fig2 on betas 0, 1/4, ..., 1: in xi2_std the mu=0 curve rises and its
    # squeezed interval ties with mu=pi/2's; every xi2_literal check passes
    _crafted_sweep(monkeypatch, cli.FIG2_MUS, [
        {"xi2_std": [[0.5, 0.6, 0.7, 0.8, 0.9]], "xi2_literal": [[1.0, 0.9, 0.8, 0.8, 0.7]]},
        {"xi2_std": [[0.5, 0.7, 0.9, 0.6, 0.4]], "xi2_literal": [[0.2, 0.5, 0.9, 0.5, 0.2]]},
        {"xi2_std": [[1.0, 1.2, 1.5, 1.1, 1.0]], "xi2_literal": [[1.0, 1.1, 1.3, 1.2, 1.0]]},
    ])
    _, violations, lines = run_fig2(beta_steps=5)
    rise = "rise to an interior maximum, then fall"
    assert lines == [
        "fig2 mu=0 (xi2_std): decrease toward a minimum: FAIL",
        f"fig2 mu=pi/2 (xi2_std): {rise}: PASS",
        f"fig2 mu=pi (xi2_std): {rise}: PASS",
        "fig2 squeezed-interval widths (xi2_std): mu=0=1, mu=pi/2=1, mu=pi=0: FAIL",
        "fig2 mu=0 (xi2_literal): decrease toward a minimum: PASS",
        f"fig2 mu=pi/2 (xi2_literal): {rise}: PASS",
        f"fig2 mu=pi (xi2_literal): {rise}: PASS",
        "fig2 squeezed-interval widths (xi2_literal): mu=0=0.75, mu=pi/2=1, mu=pi=0: PASS",
    ]
    assert violations == [
        "fig2 mu=0 (xi2_std): expected decrease toward a minimum",
        "fig2 (xi2_std): squeezed interval at mu=pi/2 must be strictly widest",
    ]


def test_figure_command_fig2_exits_two(tmp_path, capsys):
    code = main(["figure", "fig2", "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "shape assertion failed" in captured.err
    assert (tmp_path / "fig2_mu0.csv").exists()
    assert (tmp_path / "fig2_mu2.csv").exists()
    assert (tmp_path / "fig2_shapes.txt").exists()
    diag = (tmp_path / "fig2_xi2_concurrence.csv").read_text().splitlines()
    assert diag[0] == "beta,mu,nu,xi2_std,concurrence,one_minus_concurrence,abs_diff"
    assert len(diag) == 1 + 3 * 201


def test_figure_requires_outdir():
    assert main(["figure", "fig2"]) == 1


def test_fig1_grid_validates_one_point_per_axis_value(monkeypatch):
    # the full fig1 grid (36,663 rows) is built from its axes: one
    # SqueezeParams per beta, nu and mu value, not one per row
    built = []
    validate = SqueezeParams.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    class GridBuilt(Exception):
        pass

    def stop(grid):
        raise GridBuilt(grid)

    monkeypatch.setattr(SqueezeParams, "__post_init__", counting)
    monkeypatch.setattr(cli, "sweep_columns", stop)
    with pytest.raises(GridBuilt) as raised:
        run_fig1()
    grid = raised.value.args[0]
    assert grid.shape == (4, len(cli.FIG1_MUS) * cli.FIG1_NU_STEPS * cli.FIG1_BETA_STEPS)
    assert len(built) <= cli.FIG1_BETA_STEPS + cli.FIG1_NU_STEPS + len(cli.FIG1_MUS) == 225


# ---------------------------------------------------------------------------
# process-level checks


# argv alphabet of the fuzz: no output or config path and no figure name, so
# a drawn argv writes no file and runs no full figure
_FUZZ_OPTIONS = {
    "point": ("--beta", "--mu", "--nu", "--convention", "--format"),
    "sweep": ("--beta-min", "--beta-max", "--beta-steps", "--mu-list", "--nu-list",
              "--strict", "--format"),
    "figure": ("--help",),
    "crosscheck": ("--beta-min", "--beta-max", "--beta-steps", "--mu-list", "--nu-list",
                   "--tol", "--format"),
}
_FUZZ_VALUES = (
    "pi/0", "2pi/3", "-pi/3", "pi", "inf", "nan", "-1", "0", "1", "2", "3", "1e400",
    "0.5", "xml", "json", "csv", "text", "standard", "paper-literal", "yes",
    "0,1", "0,pi/2", ",", "nan,0",
)
_FUZZ_TOKENS = (
    *_FUZZ_OPTIONS, *sorted({o for opts in _FUZZ_OPTIONS.values() for o in opts}),
    *_FUZZ_VALUES,
)


def _fuzz_argv(command):
    """The subcommand, option-value pairs of its own, then up to two stray tokens."""
    pairs = st.lists(st.tuples(st.sampled_from(_FUZZ_OPTIONS[command]),
                               st.sampled_from(_FUZZ_VALUES)), max_size=5)
    stray = st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=2)
    return st.builds(lambda p, t: [command, *(x for pair in p for x in pair), *t], pairs, stray)


@given(st.sampled_from(tuple(_FUZZ_OPTIONS)).flatmap(_fuzz_argv))
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_main_fuzz_exits_cleanly(argv):
    code, err, caught = _run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert caught == [], (argv, caught)


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "biaxbell.cli", "point", "--beta", "0", "--mu", "0",
         "--nu", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "xi2_std" in proc.stdout
