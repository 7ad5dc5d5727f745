#!/usr/bin/env bash
# Compare the command-line output of biaxbell at a git revision with the
# working tree.
#
#   tools/cli_diff.sh REV        e.g. tools/cli_diff.sh HEAD~1
#
# src/ at REV is exported with `git archive`; the working tree's src/ is
# copied as it is on disk (git archive reads only committed trees).  Both
# land in a temporary directory, so nothing is written inside the repository.
# Each case below runs on both trees in its own directory; its stdout,
# stderr, exit code and written files are then compared with `diff -r`.
# Exit status: 0 when every case is byte-identical, 1 when any differs.
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

# config files read by the --config cases; both trees read the same files
printf 'mu-list=0,pi/2\nnu-list=-pi/3,1\nbeta-steps=6\nformat=json\n' >"$tmp/sweep.cfg"
printf 'mu-list=pi/3\nnu-list=0.3,-2\nbeta-steps=4\ntol=1e-17\nformat=json\n' >"$tmp/crosscheck.cfg"

# name|argv, split on spaces; output paths are relative to the case directory
cases=(
    # the three benchmark argv shapes (perfbench/workloads.py)
    "bench_sweep_fig1|sweep --mu-list pi/3 --nu-list=2.0943951023931953 --beta-steps 41 --format csv --out out0.csv"
    "bench_crosscheck|crosscheck --format json --beta-min=0.35 --beta-max=0.65 --beta-steps 7 --nu-list=-1.0471975511965976 --out out0.json"
    "bench_sweep_zero_mean|sweep --mu-list pi/2 --nu-list pi --beta-min=0.0625 --beta-max=0.3 --beta-steps 26 --format json --out out0.json"
    # all 202 zero-mean rows in one call: one oracle block of up to 240 rows,
    # every row on the all-directions route and its certificate
    "sweep_zero_mean_wide|sweep --mu-list pi/2 --nu-list 0,pi --beta-steps 101 --format json"
    "crosscheck_text|crosscheck"
    "crosscheck_json|crosscheck --format json"
    "crosscheck_tight_text|crosscheck --tol 1e-18 --beta-steps 3"
    "crosscheck_tight_json|crosscheck --tol 1e-18 --beta-steps 3 --format json"
    "crosscheck_nu_inconclusive|crosscheck --nu-list 0 --beta-steps 5"
    "crosscheck_nu_pair_json|crosscheck --tol 1e-17 --beta-steps 6 --nu-list 0.3,-2 --format json"
    # polar-degenerate frames (mu = 0, pi) and |nu| > 2 pi on both nu candidates,
    # with every FAIL line printed
    "crosscheck_polar_wide_nu|crosscheck --mu-list 0,pi/3,pi --nu-list=-7.5,9 --beta-steps 5 --tol 1e-17 --format json"
    # mu = pi/2 with nu in {0, pi}: 6 fully-degenerate points, 30 failures, exit 2
    "crosscheck_degenerate|crosscheck --beta-steps 3 --mu-list pi/2 --nu-list 0,pi --tol 1e-18"
    "point_text|point --beta 0.6 --mu pi/3 --nu pi/4"
    "point_json|point --beta 0.6 --mu pi/3 --nu pi/4 --format json"
    "point_degenerate|point --beta 1 --mu pi/2 --nu 0 --convention paper-literal"
    "point_degenerate_json|point --beta 1 --mu 0.5 --nu 0.3 --format json"
    "point_polar|point --beta 0 --mu 0 --nu 0"
    "sweep_csv|sweep --mu-list 0,pi/2,2pi/3 --nu-list=-pi/3,1 --beta-steps 11"
    "sweep_json|sweep --mu-list 0,pi/2,2pi/3 --nu-list=-pi/3,1 --beta-steps 11 --format json"
    "sweep_strict|sweep --mu-list pi/2 --nu-list 0,1 --beta-steps 5 --strict"
    # regular, polar-degenerate (beta = 0 at mu = 0) and fully-degenerate rows
    # (mu = pi/2, nu = 0) in one call
    "sweep_mixed_status|sweep --mu-list 0,pi/2 --nu-list 0,1 --beta-steps 9"
    # the same rows and their NaN cells through the JSON writer
    "sweep_mixed_status_json|sweep --mu-list 0,pi/2 --nu-list 0,1 --beta-steps 9 --format json"
    # nu = -0.0, |nu| > 2 pi, both poles and beta in {0, 1}: where assembling
    # complex values can flip the sign of a zero
    "sweep_signed_zero|sweep --mu-list 0,pi/2,pi --nu-list=-0,9,0 --beta-steps 3 --format json"
    # rows across the seams of 240-row oracle blocks: 732 rows in four blocks
    # with all three frame statuses, and 604 strict JSON rows whose 152
    # fully-degenerate rows all come after row 240
    "sweep_multi_block_csv|sweep --mu-list 0,pi/2,pi/3 --nu-list 0,0.3,pi,-1 --beta-steps 61 --out out0.csv"
    "sweep_multi_block_strict_json|sweep --mu-list pi/3,pi/2 --nu-list 0.3,0 --beta-max 0.9 --beta-steps 151 --format json --strict"
    "sweep_config|sweep --config $tmp/sweep.cfg"
    # the flags override the file's format and beta-steps
    "crosscheck_config_flags_win|crosscheck --config $tmp/crosscheck.cfg --format text --beta-steps 3"
    "figure_fig1|figure fig1 --outdir figs"
    # exits 2 by design: its mu=pi shape clause contradicts a rotation symmetry
    "figure_fig2|figure fig2 --outdir figs"
    # invalid axes exit 1 with the error of the first rejected row in row
    # order: nu of row 0, mu = 4 before a later nan nu, and in crosscheck's
    # beta, mu, nu order the nu of row 1 before any mu = 4
    "sweep_invalid_nu_first|sweep --mu-list 0,4 --nu-list=nan,0 --beta-steps 3"
    "sweep_invalid_mu_first|sweep --mu-list 4,0 --nu-list=0,nan --beta-steps 3"
    "crosscheck_invalid_nu_first|crosscheck --mu-list 0,4 --nu-list=0,inf --beta-steps 3"
)

for side in rev work; do
    for case in "${cases[@]}"; do
        name=${case%%|*}
        read -r -a argv <<< "${case#*|}"
        dir="$tmp/out-$side/$name"
        mkdir -p "$dir"
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
