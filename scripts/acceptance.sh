#!/usr/bin/env bash
# Run the acceptance gate alone and show its per-criterion scoreboard.
#
# Usage: scripts/acceptance.sh [extra pytest args...]

set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

python3 -m pytest tests/test_acceptance.py -q "$@"
