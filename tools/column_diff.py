#!/usr/bin/env python3
"""Compare the sweep columns and crosscheck reports of biaxbell at a git
revision with the working tree, bit for bit.

    python3 tools/column_diff.py REV [ROWS]      e.g. tools/column_diff.py HEAD~1

src/ at REV is exported with `git archive` into a temporary directory; the
working tree's src/ is imported where it is, and no process writes bytecode,
so nothing is written inside the repository.  Each tree is imported by its
own python3 process, which evaluates the same seeded grid of about ROWS rows
(default 200,000): mu and nu axes of 40 and 50 values with the poles, the
equator, nu = -0.0 and |nu| > 2 pi among them, and a beta axis of
ROWS / 2000 values: 1/sqrt(2) and seeded values first, then 0 and 1, so
that a short axis still holds a beta where the transverse moments are not
trivial.  The beta axis is taken in chunks of 10 values.  For each chunk
the process writes a digest of the repr of every cell of

- cli.sweep_columns of its axis_grid in (mu, nu, beta) order, and
- run_crosscheck(grid, DEFAULT_TOL).as_dict() of its default_grid, with
  run_crosscheck(..., 1e-17) of every 50th of those points, whose report
  lists failures.

repr tells -0.0 from 0.0, so a flipped sign of zero shows (a NaN reads nan
whatever its payload).  Each process also saves its float sweep columns and
the max_abs_diff_per_quantity entries of its reports.  For every such
column or entry whose bits differ, the largest |working tree - REV| over
all chunks is printed to 3 digits (0.0 when only a sign of zero flipped;
nan when a NaN meets a number).  Exit status: 0 when every digest is the
same on both trees, 1 when any differs (each differing chunk and column is
printed), and 2 on a usage error.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHUNK = 10              # beta values per chunk
ROWS_PER_BETA = 40 * 50

# run by each tree's interpreter: PYTHONPATH points at that tree's src/
CHILD = r"""
import hashlib, json, math, sys
import numpy as np
from biaxbell import cli
from biaxbell.crosscheck import DEFAULT_TOL, default_grid, run_crosscheck

betas_per_axis, chunk, saved = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
rng = np.random.default_rng(26)
mus = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0.0, math.pi, 37)])
nus = np.concatenate([[0.0, -0.0, math.pi, -math.pi, math.pi / 2, 9.0, -7.5],
                      rng.uniform(-9.0, 9.0, 43)])
betas = np.concatenate([[1.0 / math.sqrt(2.0)],
                        rng.uniform(0.0, 1.0, max(0, betas_per_axis - 3)),
                        [0.0, 1.0]])[:betas_per_axis]


def digest(values) -> str:
    return hashlib.sha256("\x1f".join(map(repr, values)).encode()).hexdigest()


out, numbers, rows = {}, {}, 0
for lo in range(0, len(betas), chunk):
    part = betas[lo:lo + chunk]
    columns = cli.sweep_columns(cli.axis_grid(("mu", "nu", "beta"), mu=mus, nu=nus, beta=part))
    rows += len(columns["beta"])
    for name, column in columns.items():
        out[f"chunk {lo // chunk} sweep {name}"] = digest(column)
        if all(isinstance(x, float) for x in column):
            numbers[f"chunk {lo // chunk} sweep {name}"] = np.array(column)
    grid = default_grid(part, mus, nus)
    for tag, report in (("crosscheck", run_crosscheck(grid, DEFAULT_TOL)),
                        ("crosscheck tight", run_crosscheck(grid[:, ::50], 1e-17))):
        for name, value in report.as_dict().items():
            cells = value.items() if isinstance(value, dict) else (
                [sorted(f.items()) for f in value] if isinstance(value, list) else [value])
            out[f"chunk {lo // chunk} {tag} {name}"] = digest(cells)
        for q, x in report.max_abs_diff_per_quantity.items():
            numbers[f"chunk {lo // chunk} {tag} max_abs_diff {q}"] = np.array([x])
np.savez(saved, **numbers)
print(json.dumps({"rows": rows, "digests": out}))
"""


def known(repo: Path, rev: str, tool: str) -> bool:
    """Whether rev names a commit of repo; if not, say so on stderr."""
    found = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", "--quiet",
                            f"{rev}^{{commit}}"], capture_output=True).returncode == 0
    if not found:
        print(f"{tool}: unknown revision '{rev}'", file=sys.stderr)
    return found


def export(repo: Path, rev: str, dest: Path) -> None:
    """src/ of rev into dest/src, by `git archive` (tools/cli_diff.py too)."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_child(child: str, path: str, *args) -> str:
    """The stdout of python3 -c child args, with PYTHONPATH=path, writing no
    bytecode."""
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", child, *map(str, args)],
                          env=env, check=True, capture_output=True, text=True).stdout


def moved(before: Path, after: Path) -> dict[str, float]:
    """The largest |after - before| per saved column or report entry, named
    without its chunk, over the ones whose bits differ in some chunk."""
    worst = {}
    with np.load(before) as rev, np.load(after) as work:
        for key in rev.keys() & work.keys():
            a, b = rev[key], work[key]
            if a.tobytes() != b.tobytes():
                same = (a == b) | (np.isnan(a) & np.isnan(b))
                worst.setdefault(key.split(" ", 2)[2], []).append(
                    np.where(same, 0.0, np.abs(b - a)).max())
    return {name: np.max(diffs).item() for name, diffs in sorted(worst.items())}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2 or (len(argv) == 2 and not argv[1].isdigit()):
        print("usage: column_diff.py REV [ROWS]", file=sys.stderr)
        return 2
    rev, rows = argv[0], int(argv[1]) if len(argv) == 2 else 200_000
    repo = Path(__file__).resolve().parents[1]
    if not known(repo, rev, "column_diff"):
        return 2
    betas = max(1, math.ceil(rows / ROWS_PER_BETA))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export(repo, rev, tmp)
        sides = {side: json.loads(run_child(CHILD, str(src), betas, CHUNK, tmp / f"{side}.npz"))
                 for side, src in (("rev", tmp / "src"), ("work", repo / "src"))}
        worst = moved(tmp / "rev.npz", tmp / "work.npz")
    before, after = sides["rev"]["digests"], sides["work"]["digests"]
    differ = [key for key in before.keys() | after.keys() if before.get(key) != after.get(key)]
    for key in sorted(differ):
        print(f"column_diff: differs: {key}", file=sys.stderr)
    for name, diff in worst.items():
        print(f"column_diff: {name} moved by at most {diff:.2e}")
    print(f"column_diff: {sides['work']['rows']} sweep rows and their crosscheck, "
          f"{len(after)} digests: " + ("identical" if not differ else f"{len(differ)} differ")
          + f" between {rev} and the working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
