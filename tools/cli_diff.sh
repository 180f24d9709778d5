#!/bin/sh
# Compare the CLI output of the working tree with that of a git revision.
#
# Usage: tools/cli_diff.sh [REV]
#
# REV (default HEAD) is exported with `git archive` into a temporary
# directory; the working tree's tools/cli_outputs.sh records the same CLI
# calls on that copy and on the working tree, so both recordings have the
# same calls and lines, and `diff -r` compares them.
# Prints the differences and exits 1 if there are any, 0 if there are none.
set -eu
if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi
rev=${1:-HEAD}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/tree"
"$root/tools/cli_outputs.sh" "$tmp/tree" "$tmp/before"
"$root/tools/cli_outputs.sh" "$root" "$tmp/after"
diff -r "$tmp/before" "$tmp/after"
