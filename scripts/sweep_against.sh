#!/usr/bin/env bash
# Compare a `gkverify run` sweep of the working tree with that of a git revision.
#
# Usage: scripts/sweep_against.sh [REF] [gkverify run args...]
#
# Exports REF (default HEAD) with `git archive` into a temporary directory,
# runs `gkverify run --format json` with the given extra arguments (none:
# the default sweep) on that tree and on the working tree, and exits with
# the code of scripts/sweep_diff.py: 0 when the two reports agree apart from
# every `elapsed` field, 1 when they differ (each differing path is
# printed), 2 when a report cannot be read.  A sweep whose checks fail still
# yields a report to compare; a sweep that cannot start (exit 2, a
# configuration error) stops the comparison with exit 2.
#
# Example: scripts/sweep_against.sh HEAD~1 --p 3 --q 5 --m 1

set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ref="${1:-HEAD}"
shift $(( $# > 0 ? 1 : 0 ))
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

sweep() {
    local tree="$1" out="$2" code=0
    shift 2
    (cd "$tree" && PYTHONPATH="$tree/src" python3 -m gkverify.cli run "$@" --format json --out "$out") \
        >/dev/null || code=$?
    if [ "$code" -gt 1 ]; then
        echo "sweep_against: the sweep of $tree exited with $code" >&2
        exit 2
    fi
    echo "sweep of $tree: exit $code" >&2
}

sweep "$tmp/ref" "$tmp/ref.json" "$@"
sweep "$root" "$tmp/work.json" "$@"
python3 "$root/scripts/sweep_diff.py" "$tmp/ref.json" "$tmp/work.json"
