#!/usr/bin/env python3
"""Repo-specific invariant lint (always runs; no clang-tidy required).

Rules
-----
no-kernel-locks       DP kernel translation units must contain no mutex /
                      lock / RMW-atomic / non-relaxed memory-order tokens:
                      the cell loops hold no synchronisation in any build,
                      and relaxed override-bit loads are the only sanctioned
                      atomic access.
engine-test-coverage  every EngineKind enumerator must be exercised by
                      tests/core_equivalence_test.cpp, and every enumerator
                      except kGeneralGap (no checkpoint support) by
                      tests/checkpoint_test.cpp. Both files must also call
                      every generic-lane detail::make_*generic* factory
                      declared in src/align/engine_detail.hpp: make_engine
                      passes the portable kernels over on x86 hosts, so only
                      these direct calls keep them cross-checked there.
no-raw-new-delete     no raw new / delete expressions in src/ (containers,
                      unique_ptr and the aligned allocator cover every need);
                      `= delete` declarations are fine.
metrics-naming        string literals fed to MetricsReport counter()/metric()
                      in tools/ and bench/ must match the repro-metrics-v1
                      grammar [a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)* (a
                      literal completed at runtime, such as a per-rank
                      suffix, is checked as written).
nolint-reason         every NOLINT must name its check and give a reason:
                      // NOLINT(<check>): <reason>
shell-hygiene         shell scripts start with a bash shebang and set
                      -euo pipefail (fallback when shellcheck is absent).
format-fallback       no trailing whitespace, tabs, CR line endings or
                      missing final newline in C++/Python/CMake sources
                      (fallback when clang-format is absent).

Escape hatch: append `REPRO_LINT_ALLOW(<rule>): <reason>` in a comment on
the offending line.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNEL_FILES = [
    "src/align/scalar_engine.cpp",
    "src/align/striped_engine.cpp",
    "src/align/general_gap_engine.cpp",
    "src/align/simd_kernel.hpp",
    "src/align/engine.cpp",
    "src/align/simd_engine.cpp",
    "src/align/simd_engine_avx2.cpp",
    "src/align/simd_engine_impl.hpp",
    "src/align/query_profile.hpp",
    "src/align/engine_detail.hpp",
]

LOCK_TOKENS = re.compile(
    r"\b(std::mutex|std::shared_mutex|std::lock_guard|std::unique_lock|"
    r"std::scoped_lock|std::condition_variable|fetch_add|fetch_sub|"
    r"fetch_or|fetch_and|fetch_xor|compare_exchange_\w+|"
    r"memory_order_(acquire|release|acq_rel|seq_cst|consume))\b"
)

METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
METRIC_CALL = re.compile(r"\b(?:counter|metric)\(\s*\"([^\"]*)\"")

NOLINT_OK = re.compile(r"NOLINT(?:NEXTLINE)?\([\w.,\- ]+\):\s*\S")
NOLINT_ANY = re.compile(r"NOLINT")

CXX_GLOBS = ["src/**/*.cpp", "src/**/*.hpp", "tools/**/*.cpp", "bench/**/*.cpp",
             "bench/**/*.hpp", "tests/**/*.cpp", "fuzz/**/*.cpp"]
FORMAT_GLOBS = CXX_GLOBS + ["tools/**/*.py", "tools/**/*.sh", "**/CMakeLists.txt",
                            "cmake/**/*.cmake"]

errors: list[str] = []


def fail(path: Path, line_no: int, rule: str, msg: str) -> None:
    rel = path.relative_to(ROOT)
    errors.append(f"{rel}:{line_no}: [{rule}] {msg}")


def allowed(raw_line: str, rule: str) -> bool:
    m = re.search(r"REPRO_LINT_ALLOW\(([\w-]+)\):\s*\S", raw_line)
    return bool(m) and m.group(1) == rule


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line breaks
    so reported line numbers stay valid."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


def glob_files(patterns: list[str]) -> list[Path]:
    seen: dict[Path, None] = {}
    for pattern in patterns:
        for p in sorted(ROOT.glob(pattern)):
            if p.is_file() and "build" not in p.parts and "_deps" not in p.parts:
                seen[p] = None
    return list(seen)


def check_kernel_locks() -> None:
    for rel in KERNEL_FILES:
        path = ROOT / rel
        if not path.exists():
            continue
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            m = LOCK_TOKENS.search(code_line)
            if m and not allowed(raw_line, "no-kernel-locks"):
                fail(path, no, "no-kernel-locks",
                     f"synchronisation token '{m.group(0)}' in a DP kernel "
                     "file (the cell loops are lock-free in every build; "
                     "only relaxed loads are sanctioned)")


def check_engine_coverage() -> None:
    engine_hpp = (ROOT / "src/align/engine.hpp").read_text()
    enum_body = re.search(r"enum class EngineKind \{(.*?)\};", engine_hpp,
                          re.DOTALL)
    if not enum_body:
        fail(ROOT / "src/align/engine.hpp", 1, "engine-test-coverage",
             "could not parse enum class EngineKind")
        return
    kinds = re.findall(r"\b(k[A-Z]\w*)\b",
                       strip_comments_and_strings(enum_body.group(1)))
    if not kinds:
        fail(ROOT / "src/align/engine.hpp", 1, "engine-test-coverage",
             "EngineKind enum parsed empty")
        return
    suites = {
        "tests/core_equivalence_test.cpp": set(kinds),
        # kGeneralGap is the one engine without checkpoint support.
        "tests/checkpoint_test.cpp": set(kinds) - {"kGeneralGap"},
    }
    for rel, required in suites.items():
        path = ROOT / rel
        text = path.read_text()
        for kind in sorted(required):
            if not re.search(rf"\b{kind}\b", text):
                fail(path, 1, "engine-test-coverage",
                     f"EngineKind::{kind} is registered in engine.hpp but "
                     f"never exercised by {rel}")
    detail_hpp = ROOT / "src/align/engine_detail.hpp"
    generic = re.findall(r"\b(make_\w*generic\w*)\s*\(",
                         strip_comments_and_strings(detail_hpp.read_text()))
    if not generic:
        fail(detail_hpp, 1, "engine-test-coverage",
             "no generic-lane make_*generic* factory found")
    for rel in suites:
        path = ROOT / rel
        text = strip_comments_and_strings(path.read_text())
        for factory in sorted(set(generic)):
            if not re.search(rf"\bdetail::{factory}\b", text):
                fail(path, 1, "engine-test-coverage",
                     f"generic-lane factory detail::{factory} is declared "
                     f"in engine_detail.hpp but never called by {rel}")


def check_raw_new_delete() -> None:
    new_expr = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` also caught below
    delete_expr = re.compile(r"\bdelete\b")
    for path in glob_files(["src/**/*.cpp", "src/**/*.hpp"]):
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            if allowed(raw_line, "no-raw-new-delete"):
                continue
            if re.search(r"=\s*delete", code_line):
                code_line = re.sub(r"=\s*delete", "", code_line)
            if re.search(r"#\s*include", code_line):
                continue
            if new_expr.search(code_line) or re.search(r"\bnew\s*\(", code_line):
                fail(path, no, "no-raw-new-delete",
                     "raw new expression (use containers / make_unique / "
                     "util::AlignedBuffer)")
            elif delete_expr.search(code_line):
                fail(path, no, "no-raw-new-delete", "raw delete expression")


def check_metrics_naming() -> None:
    for path in glob_files(["tools/**/*.cpp", "bench/**/*.cpp",
                            "bench/**/*.hpp"]):
        for no, line in enumerate(path.read_text().splitlines(), start=1):
            for name in METRIC_CALL.findall(line):
                if not METRIC_NAME.match(name) and not allowed(
                        line, "metrics-naming"):
                    fail(path, no, "metrics-naming",
                         f'metric name "{name}" violates repro-metrics-v1 '
                         "([a-z][a-z0-9_]* dot-separated segments)")


def check_nolint_reasons() -> None:
    for path in glob_files(CXX_GLOBS):
        for no, line in enumerate(path.read_text().splitlines(), start=1):
            if NOLINT_ANY.search(line) and not NOLINT_OK.search(line):
                fail(path, no, "nolint-reason",
                     "NOLINT without '(<check>): <reason>' — name the check "
                     "and justify the suppression")


def check_shell_hygiene() -> None:
    for path in glob_files(["tools/**/*.sh", "bench/**/*.sh"]):
        lines = path.read_text().splitlines()
        if not lines or not re.match(r"#!/(usr/bin/env bash|bin/bash)", lines[0]):
            fail(path, 1, "shell-hygiene", "missing bash shebang")
        if not any("set -euo pipefail" in l for l in lines[:20]):
            fail(path, 1, "shell-hygiene",
                 "missing 'set -euo pipefail' in the first 20 lines")


def check_format_fallback() -> None:
    for path in glob_files(FORMAT_GLOBS):
        data = path.read_text()
        if data and not data.endswith("\n"):
            fail(path, data.count("\n") + 1, "format-fallback",
                 "missing final newline")
        for no, line in enumerate(data.splitlines(), start=1):
            if line.endswith("\r"):
                fail(path, no, "format-fallback", "CR line ending")
                break
            if re.search(r"[ \t]+$", line):
                fail(path, no, "format-fallback", "trailing whitespace")
            if "\t" in line and path.suffix in {".cpp", ".hpp", ".py"}:
                fail(path, no, "format-fallback", "tab character")


def main() -> int:
    check_kernel_locks()
    check_engine_coverage()
    check_raw_new_delete()
    check_metrics_naming()
    check_nolint_reasons()
    check_shell_hygiene()
    check_format_fallback()
    if errors:
        for e in errors:
            print(e)
        print(f"repro_lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("repro_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
