"""The byte contract: SHA-256 digests of what the CLI writes, pinned.

CASES is the one list of the contract's cases, and run_case is the one way
to run them; tools/cli_diff.py calls it to compare two revisions.  Each case
runs main() in-process in a fresh directory that holds only the CONFIGS
files its argv names.  Its stdout, its stderr and its exit code ("N\\n") are
written there as files, and every file in the directory is hashed and
compared with golden_digests.json.  A numpy or LAPACK that moves the last
bit of any printed value fails here.  Two steps under the digests round
as this OpenBLAS does, not as a plain sum of products: oracle._expectations'
row-wise <psi| op psi> matmul (as spincore.expectation's @) and the
operator products of SpinOperatorSet.moment_stack.  No step runs a LAPACK
eigensolver, and every other oracle step is elementwise arithmetic or
einsum, so another BLAS can fail these digests with correct arithmetic.

A digest is re-pinned only with the case and the cause named in CHANGES.md.
To print the table for the code under test:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from biaxbell.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")

# name -> argv, split on spaces; output paths are relative to the case directory
CASES = {
    # the three benchmark argv shapes (perfbench/workloads.py)
    "bench_sweep_fig1": "sweep --mu-list pi/3 --nu-list=2.0943951023931953 --beta-steps 41 "
                        "--format csv --out out0.csv",
    "bench_crosscheck": "crosscheck --format json --beta-min=0.35 --beta-max=0.65 "
                        "--beta-steps 7 --nu-list=-1.0471975511965976 --out out0.json",
    "bench_sweep_zero_mean": "sweep --mu-list pi/2 --nu-list pi --beta-min=0.0625 "
                             "--beta-max=0.3 --beta-steps 26 --format json --out out0.json",
    # all 202 zero-mean rows in one oracle block, every row on the
    # all-directions route and its certificate
    "sweep_zero_mean_wide": "sweep --mu-list pi/2 --nu-list 0,pi --beta-steps 101 --format json",
    "crosscheck_text": "crosscheck",
    "crosscheck_json": "crosscheck --format json",
    # reports with failure records: every closed and oracle repr is pinned
    "crosscheck_tight_text": "crosscheck --tol 1e-18 --beta-steps 3",
    "crosscheck_tight_json": "crosscheck --tol 1e-18 --beta-steps 3 --format json",
    "crosscheck_nu_inconclusive": "crosscheck --nu-list 0 --beta-steps 5",
    "crosscheck_nu_pair_json": "crosscheck --tol 1e-17 --beta-steps 6 --nu-list 0.3,-2 "
                               "--format json",
    # polar-degenerate frames (mu = 0, pi) and |nu| > 2 pi on both nu
    # candidates, with every FAIL record
    "crosscheck_polar_wide_nu": "crosscheck --mu-list 0,pi/3,pi --nu-list=-7.5,9 --beta-steps 5 "
                                "--tol 1e-17 --format json",
    # mu = pi/2 with nu in {0, pi}: 6 fully-degenerate points, 30 failures, exit 2
    "crosscheck_degenerate": "crosscheck --beta-steps 3 --mu-list pi/2 --nu-list 0,pi --tol 1e-18",
    "point_text": "point --beta 0.6 --mu pi/3 --nu pi/4",
    "point_json": "point --beta 0.6 --mu pi/3 --nu pi/4 --format json",
    "point_degenerate": "point --beta 1 --mu pi/2 --nu 0 --convention paper-literal",
    "point_degenerate_json": "point --beta 1 --mu 0.5 --nu 0.3 --format json",
    "point_polar": "point --beta 0 --mu 0 --nu 0",
    "sweep_csv": "sweep --mu-list 0,pi/2,2pi/3 --nu-list=-pi/3,1 --beta-steps 11",
    "sweep_json": "sweep --mu-list 0,pi/2,2pi/3 --nu-list=-pi/3,1 --beta-steps 11 --format json",
    "sweep_strict": "sweep --mu-list pi/2 --nu-list 0,1 --beta-steps 5 --strict",
    # regular, polar-degenerate (beta = 0 at mu = 0) and fully-degenerate rows
    # (mu = pi/2, nu = 0) in one call, and their NaN cells through the JSON writer
    "sweep_mixed_status": "sweep --mu-list 0,pi/2 --nu-list 0,1 --beta-steps 9",
    "sweep_mixed_status_json": "sweep --mu-list 0,pi/2 --nu-list 0,1 --beta-steps 9 --format json",
    # ν = −0.0, |ν| > 2π, both poles and β ∈ {0, 1}
    "sweep_signed_zero": "sweep --mu-list 0,pi/2,pi --nu-list=-0,9,0 --beta-steps 3 --format json",
    # 732 rows in four oracle blocks of 240, with all three frame statuses
    "sweep_multi_block_csv": "sweep --mu-list 0,pi/2,pi/3 --nu-list 0,0.3,pi,-1 --beta-steps 61 "
                             "--out out0.csv",
    # 604 rows; all 152 fully-degenerate rows come after row 240, and the
    # strict exit 2 follows the whole output
    "sweep_multi_block_strict_json": "sweep --mu-list pi/3,pi/2 --nu-list 0.3,0 --beta-max 0.9 "
                                     "--beta-steps 151 --format json --strict",
    "sweep_config": "sweep --config sweep.cfg",
    # the flags override the file's format and beta-steps
    "crosscheck_config_flags_win": "crosscheck --config crosscheck.cfg --format text "
                                   "--beta-steps 3",
    "figure_fig1": "figure fig1 --outdir figs",
    # exits 2 by design: its mu=pi shape clause contradicts a rotation symmetry
    "figure_fig2": "figure fig2 --outdir figs",
    # invalid axes exit 1 with the error of the first rejected row in row
    # order: row 0 fails on nu before mu = 4 is reached ...
    "sweep_invalid_nu_first": "sweep --mu-list 0,4 --nu-list=nan,0 --beta-steps 3",
    # ... mu = 4 fails before the nan of a later nu ...
    "sweep_invalid_mu_first": "sweep --mu-list 4,0 --nu-list=0,nan --beta-steps 3",
    # ... and in crosscheck's beta, mu, nu order row 1 fails before any mu = 4
    "crosscheck_invalid_nu_first": "crosscheck --mu-list 0,4 --nu-list=0,inf --beta-steps 3",
}

# the files the --config cases read, by the name their argv gives
CONFIGS = {
    "sweep.cfg": "mu-list=0,pi/2\nnu-list=-pi/3,1\nbeta-steps=6\nformat=json\n",
    "crosscheck.cfg": "mu-list=pi/3\nnu-list=0.3,-2\nbeta-steps=4\ntol=1e-17\nformat=json\n",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: str, where: Path) -> dict[str, str]:
    """Run one case in the empty directory where, after the config files its
    argv names; write its stdout, stderr and exit_code ("N\\n") there as
    files, and return the digest of each file in where by its relative path."""
    for name in CONFIGS.keys() & argv.split():
        (where / name).write_text(CONFIGS[name], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv.split())
    finally:
        os.chdir(cwd)
    written = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit_code": f"{code}\n"}
    for name, text in written.items():
        (where / name).write_bytes(text.encode())
    # the three written files first, then the rest sorted, as the table lists them
    files = sorted(p.relative_to(where).as_posix() for p in where.rglob("*") if p.is_file())
    return {name: _sha((where / name).read_bytes()) for name in [*written, *files]}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_bytes_match_golden_digests(name, tmp_path):
    want = json.loads(TABLE.read_text())[name]
    got = run_case(CASES[name], tmp_path)
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, f"{name}: digests differ for {changed}"


if __name__ == "__main__":
    import tempfile

    table = {}
    for case, case_argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = run_case(case_argv, Path(tmp))
    json.dump(table, sys.stdout, indent=2)
    sys.stdout.write("\n")
