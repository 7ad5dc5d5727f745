#!/usr/bin/env bash
# Compare the command-line output of biaxbell at a git revision with the
# working tree, over the cases of the byte contract.
#
#   tools/cli_diff.sh REV        e.g. tools/cli_diff.sh HEAD~1
#
# src/ at REV is exported with `git archive`; the working tree's src/ is
# copied as it is on disk (git archive reads only committed trees).  Both
# land in a temporary directory, so nothing is written inside the repository.
# The cases are CASES of the working tree's tests/test_golden.py, the cases
# its digests pin, read by importing that file.  Each case runs as one fresh
# `python3 -m biaxbell.cli` per tree in its own directory, which holds the
# CONFIGS files its argv names; its stdout, stderr, exit code and the
# directory's files are then compared with `diff -r`.
# Exit status: 0 when every case is byte-identical, 1 when any differs, 2 on
# a usage error.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
git -C "$repo" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "$0: unknown revision '$rev'" >&2
    exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/rev" "$tmp/work"
git -C "$repo" archive "$rev" src | tar -x -C "$tmp/rev"
tar -C "$repo" --exclude=__pycache__ -cf - src | tar -x -C "$tmp/work"

# one "name|argv" line per case, and each case's directory on both trees
# with the config files its argv names
PYTHONPATH="$repo/tests:$tmp/work/src" PYTHONDONTWRITEBYTECODE=1 python3 - "$tmp" >"$tmp/cases" <<'PY'
import sys
from pathlib import Path

from test_golden import CASES, write_configs

for name, argv in CASES.items():
    for side in ("rev", "work"):
        where = Path(sys.argv[1], f"out-{side}", name)
        where.mkdir(parents=True)
        write_configs(argv, where)
    print(f"{name}|{argv}")
PY
mapfile -t cases <"$tmp/cases"

for side in rev work; do
    for case in "${cases[@]}"; do
        name=${case%%|*}
        read -r -a argv <<< "${case#*|}"
        dir="$tmp/out-$side/$name"
        status=0
        (cd "$dir" && PYTHONPATH="$tmp/$side/src" PYTHONDONTWRITEBYTECODE=1 \
            python3 -m biaxbell.cli "${argv[@]}" >stdout 2>stderr) || status=$?
        echo "$status" >"$dir/exit_code"
    done
done

if diff -r "$tmp/out-rev" "$tmp/out-work"; then
    echo "cli_diff: ${#cases[@]} cases byte-identical between $rev and the working tree"
else
    echo "cli_diff: output differs between $rev and the working tree" >&2
    exit 1
fi
