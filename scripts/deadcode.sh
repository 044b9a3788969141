#!/bin/sh
# deadcode.sh — list the functions under internal/ that no binary links.
#
# Builds every main package of the module (cmd/*, benchmark,
# examples/*) with inlining off (-gcflags=all=-l, so a called function
# keeps its own symbol), collects the text symbols of all of them with
# `go tool nm`, and prints, sorted, every non-test top-level function
# or method declared under internal/ whose symbol none of them holds.
# Generic functions and methods of generic types are skipped: their
# symbols carry instantiation suffixes. init functions are skipped too.
#
# The committed list is scripts/unreached.txt; check.sh fails when a
# function appears here that is not on it. To accept a removal:
#   sh scripts/deadcode.sh > scripts/unreached.txt
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

: > "$tmp/linked"
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    go build -gcflags=all=-l -o "$tmp/bin" "$pkg"
    go tool nm "$tmp/bin" | awk '$2 == "T" || $2 == "t" { print $3 }' >> "$tmp/linked"
done
LC_ALL=C sort -u "$tmp/linked" > "$tmp/linked.sorted"

# One "importpath file..." line per package, test files excluded.
go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./internal/... |
while read -r path files; do
    # shellcheck disable=SC2086
    awk -v pkg="$path" '
        /^func / {
            line = substr($0, 6)
            recv = ""
            if (substr(line, 1, 1) == "(") {
                i = index(line, ")")
                recv = substr(line, 2, i - 2)
                line = substr(line, i + 2)
                if (recv ~ /\[/) next  # method of a generic type
                n = split(recv, parts, " ")
                recv = parts[n]
                if (substr(recv, 1, 1) == "*") recv = "(" recv ")"
            }
            name = line
            sub(/[(\[].*/, "", name)
            if (substr(line, length(name) + 1, 1) == "[") next  # generic func
            if (name == "init" || name == "_") next
            print pkg "." (recv == "" ? "" : recv ".") name
        }' $files
done | LC_ALL=C sort -u > "$tmp/declared"

LC_ALL=C comm -23 "$tmp/declared" "$tmp/linked.sorted"
