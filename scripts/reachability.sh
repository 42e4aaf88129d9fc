#!/usr/bin/env sh
# Lists every function that tier-1 (`go test ./...`) never executes:
# it runs the suite with whole-repository coverage and prints each
# function at 0 %, one `file.go Name` a line.
#
# With -check it also fails (exit 1) on any listed function that
# DESIGN.md §13 does not name, i.e. that has no line there holding
# both its `file.go` and its `Name` in backticks.
#
# Usage: scripts/reachability.sh [-check]
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go test -count=1 -coverpkg=./... -coverprofile="$TMP/cover.out" ./... >"$TMP/test.log" 2>&1 || {
    cat "$TMP/test.log" >&2
    echo "reachability: tier-1 failed" >&2
    exit 1
}
module="$(go list -m)"
go tool cover -func="$TMP/cover.out" |
    awk -v m="$module/" '$NF == "0.0%" { f = $1; sub(m, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' >"$TMP/zero"
cat "$TMP/zero"

[ "${1:-}" = "-check" ] || exit 0
awk '/^## 13\./ { on = 1; next } /^## / { on = 0 } on' DESIGN.md >"$TMP/sec13"
missing=0
while read -r file name; do
    if ! grep -F "\`$file\`" "$TMP/sec13" | grep -qF "\`$name\`"; then
        echo "reachability: $file $name is never run by tier-1 and DESIGN.md §13 does not list it" >&2
        missing=1
    fi
done <"$TMP/zero"
exit "$missing"
