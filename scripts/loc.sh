#!/usr/bin/env bash
# loc.sh prints the number of non-test Go source lines tracked by git:
# every *.go file from `git ls-files`, excluding _test.go files, the
# nested perfbench module and testdata fixtures. Listing through git
# keeps untracked build output (.bench_build/) out of the count; new
# source files count once they are staged with `git add`.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z '*.go' |
    grep -zv -e '_test\.go$' -e '^perfbench/' -e '(^|/)testdata/' -E |
    xargs -0 cat | wc -l | tr -d ' '
