#!/usr/bin/env bash
# Non-test Go lines per package and in total — the number ROADMAP item 5
# tracks (`find internal cmd -name '*.go' ! -name '*_test.go' ! -path
# '*/testdata/*' | xargs cat | wc -l`). CI prints it so the trend is in
# every log.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
}

for d in internal/* cmd/*; do
  printf '%-28s %6d\n' "$d" "$(count "$d")"
done
printf '%-28s %6d\n' total "$(count internal cmd)"
