#!/usr/bin/env bash
# Prints the non-blank, non-comment line count of each src/ module and the
# total. A comment line holds nothing but a // comment or lies inside a
# /* ... */ block; lines mixing code and a trailing comment count as code.
#
# Usage: tools/src_lines.sh [src-dir]   (default: the repo's src/)
set -euo pipefail

src=${1:-"$(dirname "$0")/../src"}

count() {
  find "$1" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 -r cat |
    awk '
      { line = $0; sub(/^[ \t]+/, "", line); sub(/[ \t\r]+$/, "", line) }
      in_block { if (line ~ /\*\//) in_block = 0; next }
      line == "" { next }
      line ~ /^\/\// { next }
      line ~ /^\/\*/ {
        if (line !~ /\*\//) { in_block = 1; next }
        rest = line; sub(/^.*\*\//, "", rest)
        if (rest ~ /^[ \t]*$/) next
      }
      { n++ }
      END { print n + 0 }'
}

total=0
for dir in "$src"/*/; do
  n=$(count "$dir")
  printf '%-10s %6d\n' "$(basename "$dir")" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
