#!/usr/bin/env python3
"""Fail when library code that only tests reach creeps back into src/.

Test-only reference code (allocating BFS kernels, the exact E(phi, s, t)
program, the dense ExplicitMatrix, eager contact vectors) lives under
tests/support/. This guard keeps it there. It builds every shipped binary
(the bench_* experiments, the examples and perfbench) unoptimised with one
section per function, links them with --gc-sections so each binary keeps only
the functions it can reach, and compares:

    strong text symbols of libnavscheme.a   (nm type T)
  - every text symbol left in a shipped binary
  = library functions that no shipped binary reaches

Every such symbol must match an entry of the allowlist
(scripts/test_only_symbols.allow). An entry is the demangled symbol, where
`*` stands for any run of characters, then ` # ` and the reason it may stay
in src/ although no binary calls it (documented API, a test hook). An entry
without a reason, or one that matches nothing any more, is an error too, so
the list cannot rot.

    python3 scripts/check_test_only_symbols.py [--build-dir DIR]

The build uses only the plain CMAKE_*_FLAGS variables, so it needs no option
in the project's CMakeLists.txt. Every bench and example must be built;
without google-benchmark bench_micro is missing and the check fails rather
than compare a smaller union. One known gap: bench_micro links
nav_test_support for its M1 `reference` cell, so a library function that
only tests/support/bfs_reference.cpp called would count as reached (today
that file calls no library function). Exit code: 0 clean, 1 unlisted or
stale symbols, 2 build failure, a missing binary or a malformed allowlist.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "test_only_symbols.allow")

# -O0 keeps every call a call (nothing is inlined away into a caller), so a
# symbol present in a binary really is reached from it.
CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=NoOpt",  # no per-config flags: CMAKE_CXX_FLAGS only
    "-DCMAKE_CXX_FLAGS=-O0 -DNDEBUG -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd: list[str]) -> None:
    print("+ " + " ".join(cmd), flush=True)
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    if result.returncode != 0:
        print(result.stdout[-8000:], file=sys.stderr)
        raise RuntimeError(f"command failed ({result.returncode}): {cmd[0]}")


def build(build_dir: str) -> tuple[str, list[str]]:
    """Builds the library, benches, examples and perfbench; returns the
    library path and the shipped binaries."""
    jobs = str(os.cpu_count() or 2)
    lib_dir = os.path.join(build_dir, "navscheme")
    run(["cmake", "-S", ROOT, "-B", lib_dir, "-DNAV_BUILD_TESTS=OFF",
         *CMAKE_FLAGS])
    run(["cmake", "--build", lib_dir, "-j", jobs])
    perf_dir = os.path.join(build_dir, "perfbench")
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", perf_dir,
         *CMAKE_FLAGS])
    run(["cmake", "--build", perf_dir, "--target", "perfbench", "-j", jobs])

    shipped = sorted(f[:-4] for d in ("bench", "examples")
                     for f in os.listdir(os.path.join(ROOT, d))
                     if f.endswith(".cpp") and
                     (d == "examples" or f.startswith("bench_")))
    binaries = [os.path.join(lib_dir, name) for name in shipped]
    missing = [name for name, path in zip(shipped, binaries)
               if not (os.path.isfile(path) and os.access(path, os.X_OK))]
    if missing:
        raise RuntimeError(f"binaries not built: {missing}")
    binaries.append(os.path.join(perf_dir, "perfbench"))
    return os.path.join(lib_dir, "libnavscheme.a"), binaries


def text_symbols(path: str, types: str) -> set[str]:
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types:
            symbols.add(parts[2])
    return symbols


def load_allowlist(path: str) -> list[tuple[re.Pattern, str, int]]:
    """(compiled pattern, pattern text, line number) per entry."""
    entries = []
    errors = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            pattern, sep, reason = line.partition(" # ")
            if not sep or not reason.strip() or not pattern.strip():
                errors.append(f"{path}:{lineno}: entry needs "
                              f"'<pattern> # <reason>': {line}")
                continue
            pattern = pattern.strip()
            regex = ".*".join(re.escape(part) for part in pattern.split("*"))
            entries.append((re.compile(regex), pattern, lineno))
    if errors:
        raise ValueError("\n".join(errors))
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-symbols"))
    args = parser.parse_args()

    try:
        allowlist = load_allowlist(ALLOWLIST)
        library, binaries = build(os.path.abspath(args.build_dir))
    except (OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    library_symbols = text_symbols(library, "T")
    reached = set()
    for binary in binaries:
        reached |= text_symbols(binary, "TtWw")
    unreached = sorted(library_symbols - reached)

    used = set()
    unlisted = []
    for symbol in unreached:
        hit = next((e for e in allowlist if e[0].fullmatch(symbol)), None)
        if hit is None:
            unlisted.append(symbol)
        else:
            used.add(hit[2])
    stale = [e for e in allowlist if e[2] not in used]

    print(f"{len(library_symbols)} strong text symbols in libnavscheme.a, "
          f"{len(unreached)} reached by no shipped binary "
          f"({len(binaries)} binaries), {len(unreached) - len(unlisted)} "
          f"allowlisted")
    for symbol in unlisted:
        print(f"unlisted: {symbol}")
    for _, pattern, lineno in stale:
        print(f"stale allowlist entry (matches nothing): "
              f"{ALLOWLIST}:{lineno}: {pattern}")
    if unlisted:
        print("Library code that only tests reach belongs in tests/support/; "
              "if it is documented API or a test hook, list it with a reason "
              "in the allowlist.")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
