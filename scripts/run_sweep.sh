#!/usr/bin/env bash
# Run the full default verification sweep and store a JSON report.
#
# Usage: scripts/run_sweep.sh [OUT_PATH]
# The report path defaults to reports/sweep.json relative to the repo root.

set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$root/reports/sweep.json}"
mkdir -p "$(dirname "$out")"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

python3 -m gkverify.cli run --format json --out "$out"
echo "report written to $out"
