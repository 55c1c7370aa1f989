#!/usr/bin/env bash
# Static-analysis driver: clang-tidy + clang-format + shellcheck + the
# repo-specific invariant lint (tools/repro_lint.py).
#
# External tools are optional — when one is missing the stage is skipped with
# a notice (the dev container ships only gcc) and repro_lint.py still
# enforces the repo invariants. CI passes --require-all, which turns a
# missing tool into a failure so the full matrix can never silently degrade.
#
# Usage: tools/lint.sh [build-dir] [--require-all]
#   build-dir      compile_commands.json source (default: ./build; configured
#                  on demand when absent)
#   --require-all  fail instead of skip when clang-tidy / clang-format /
#                  shellcheck are not installed
set -euo pipefail

cd "$(dirname "$0")/.."
build=build
require_all=0
for arg in "$@"; do
  case "$arg" in
    --require-all) require_all=1 ;;
    *) build="$arg" ;;
  esac
done

failures=0
note() { printf '== %s\n' "$*"; }
stage_fail() {
  printf 'LINT FAIL: %s\n' "$*" >&2
  failures=$((failures + 1))
}
missing() {
  if [ "$require_all" = 1 ]; then
    stage_fail "$1 not installed (required by --require-all)"
  else
    note "$1 not installed — stage skipped"
  fi
}

cxx_sources() {
  # Lintable C++ translation units (headers ride along via clang-tidy's
  # HeaderFilterRegex).
  find src tools bench tests fuzz -name '*.cpp' | sort
}

# --- clang-tidy -------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$build/compile_commands.json" ]; then
    note "configuring $build to produce compile_commands.json"
    cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  fi
  note "clang-tidy ($(clang-tidy --version | head -1))"
  if ! cxx_sources | xargs clang-tidy -p "$build" --quiet; then
    stage_fail "clang-tidy reported diagnostics"
  fi
else
  missing clang-tidy
fi

# --- clang-format -----------------------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  note "clang-format --dry-run -Werror"
  if ! { cxx_sources; find src -name '*.hpp'; } | \
       xargs clang-format --dry-run -Werror; then
    stage_fail "clang-format found unformatted files"
  fi
else
  missing clang-format
fi

# --- shellcheck -------------------------------------------------------------
if command -v shellcheck >/dev/null 2>&1; then
  note "shellcheck"
  if ! find tools bench -name '*.sh' -print0 | xargs -0 shellcheck; then
    stage_fail "shellcheck reported issues"
  fi
else
  missing shellcheck
fi

# --- repro invariants (always on) -------------------------------------------
note "repro_lint.py (repo invariants)"
if ! python3 tools/repro_lint.py; then
  stage_fail "repro_lint.py reported violations"
fi
note "perf_pairs.py doctests (the clear-gain verdict and the history record)"
if ! python3 -m doctest tools/perf_pairs.py; then
  stage_fail "perf_pairs.py doctests failed"
fi

if [ "$failures" -gt 0 ]; then
  printf 'lint: %d stage(s) failed\n' "$failures" >&2
  exit 1
fi
note "lint: all enabled stages clean"
