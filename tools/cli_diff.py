#!/usr/bin/env python3
"""Compare the command-line output of biaxbell at a git revision with the
working tree, over the cases of the byte contract.

    python3 tools/cli_diff.py REV        e.g. tools/cli_diff.py HEAD~1

src/ at REV is exported as column_diff exports it.  For each tree one
python3 process, with that tree's src/ first on its path and the working
tree's tests/ after it, runs tests/test_golden.run_case on every case of
CASES, each in a directory of its own, where run_case leaves the case's
files, stdout, stderr and exit_code; the two trees of case directories are
then compared with `diff -r`.  Exit status: 0 when every case is
byte-identical, 1 when any differs, 2 on a usage error.
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from column_diff import export, known, run_child

CHILD = r"""
import sys
from pathlib import Path
from test_golden import CASES, run_case

for name, argv in CASES.items():
    (Path(sys.argv[1]) / name).mkdir(parents=True)
    run_case(argv, Path(sys.argv[1]) / name)
print(len(CASES))
"""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: cli_diff.py REV", file=sys.stderr)
        return 2
    rev, repo = argv[0], Path(__file__).resolve().parents[1]
    if not known(repo, rev, "cli_diff"):
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        export(repo, rev, Path(tmp))
        for side, src in (("rev", Path(tmp, "src")), ("work", repo / "src")):
            cases = run_child(CHILD, f"{src}{os.pathsep}{repo / 'tests'}", Path(tmp, f"out-{side}"))
        differ = subprocess.run(["diff", "-r", "out-rev", "out-work"], cwd=tmp).returncode
    if differ:
        print(f"cli_diff: output differs between {rev} and the working tree", file=sys.stderr)
        return 1
    print(f"cli_diff: {int(cases)} cases byte-identical between {rev} and the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
