#!/usr/bin/env bash
# Sustained-load soak driver: run the combined churn-at-scale +
# million-flow experiment for a wall duration and collect the
# self-scraped metrics JSONL. The steady-state numbers come from the
# repository's benchmark (bench/README.md).
#
#   scripts/soak.sh                 # full soak: 400k prefixes, 1M flows, 30s
#   scripts/soak.sh -short          # CI smoke: 20k prefixes, 20k flows, 8s
#   SOAK_OUT=/tmp/x.jsonl scripts/soak.sh
#
# Exits nonzero if the run fails a soak gate (scrape gap, counter
# regression, flow conservation, stage additivity > 5%) — the binary
# prints "soak: PASS" or "soak: FAIL ..." as its last experiment line
# and sets its exit code to match, so CI can gate on this script alone.
set -euo pipefail
cd "$(dirname "$0")/.."

duration=30
prefixes=0   # 0 = 400,000
flows=0      # 0 = 1,000,000
scrape=1
if [[ "${1:-}" == "-short" ]]; then
  duration=8
  prefixes=20000
  flows=20000
  scrape=0.5
  shift
fi

out=${SOAK_OUT:-soak_$(date +%Y-%m-%d).jsonl}
report=$(mktemp)
trap 'rm -f "$report"' EXIT

status=0
go run ./cmd/experiments -run soak \
  -soak-duration "$duration" -soak-prefixes "$prefixes" -flows "$flows" \
  -soak-scrape "$scrape" -soak-out "$out" "$@" | tee "$report" || status=$?

# Belt and braces: even if the exit code is lost to a pipeline change,
# the absence of the PASS line fails the script.
grep -q '^soak: PASS$' "$report" || status=1

echo
echo "soak JSONL: $out ($(wc -l <"$out") scrapes)"

exit "$status"
