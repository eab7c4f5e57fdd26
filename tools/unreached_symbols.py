#!/usr/bin/env python3
"""Linker gate against library code that no shipped binary reaches.

Usage:
    unreached_symbols.py --library LIB --allowlist FILE BINARY...
    unreached_symbols.py --library LIB --list BINARY...

Lists the out-of-line functions of the whart library that none of the
given binaries links: the `T whart::...` symbols of `nm -C
--defined-only LIB`, minus every symbol defined in any BINARY.  The
answer only means something when the library and the binaries were
built at -O0 with per-function sections and linked with section garbage
collection, so that the linker keeps exactly the functions something
calls:

    cmake -B build-o0 -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

(An optimised build inlines same-file callers and then collects their
out-of-line copies, so live functions would read as unreached.)

With --allowlist the result is compared with the allowlist and the gate
fails (exit 1) on any difference in either direction: a new unreached
function, or an allowlisted one that a binary now links or the library
no longer defines.  The allowlist holds demangled signatures, one a
line, in groups; each group opens with a `reason:` line saying why its
functions stay although no binary calls them (a test checks other code
with them, say).  `#` starts a comment line.  With --list the unreached
signatures are printed instead, one a line.

Stdlib plus binutils `nm`.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys

SYMBOL_LINE = re.compile(r"^[0-9a-fA-F]+ (\S) (.+)$")


def defined_symbols(path: str, types: str | None = None) -> set[str]:
    """Demangled names of the symbols `path` defines (of `types` only)."""
    output = subprocess.run(["nm", "-C", "--defined-only", path],
                            check=True, capture_output=True,
                            text=True).stdout
    names = set()
    for line in output.splitlines():
        match = SYMBOL_LINE.match(line)
        if match and (types is None or match.group(1) in types):
            names.add(match.group(2))
    return names


def unreached(library: str, binaries: list[str]) -> set[str]:
    functions = {name for name in defined_symbols(library, "T")
                 if name.startswith("whart::")}
    for binary in binaries:
        functions -= defined_symbols(binary)
    return functions


def read_allowlist(path: str) -> set[str]:
    entries = set()
    reason = None
    with open(path, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("reason:"):
                reason = line[len("reason:"):].strip()
                if not reason:
                    sys.exit(f"{path}:{number}: empty reason")
                continue
            if reason is None:
                sys.exit(f"{path}:{number}: entry before any 'reason:' line")
            if line in entries:
                sys.exit(f"{path}:{number}: duplicate entry {line}")
            entries.add(line)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--library", required=True,
                        help="static library whose functions are checked")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--allowlist",
                      help="expected unreached functions, with reasons")
    mode.add_argument("--list", action="store_true",
                      help="print the unreached functions and exit")
    parser.add_argument("binaries", nargs="+",
                        help="every binary that ships the library")
    args = parser.parse_args()

    found = unreached(args.library, args.binaries)
    if args.list:
        for name in sorted(found):
            print(name)
        return 0

    allowed = read_allowlist(args.allowlist)
    new = sorted(found - allowed)
    stale = sorted(allowed - found)
    for name in new:
        print(f"unreached, not allowlisted: {name}")
    for name in stale:
        print(f"allowlisted, but linked or gone: {name}")
    if new or stale:
        print(f"unreached_symbols: FAIL: {len(new)} new unreached, "
              f"{len(stale)} stale allowlist entries "
              f"({len(args.binaries)} binaries)")
        return 1
    print(f"unreached_symbols: OK: {len(found)} unreached functions, all "
          f"allowlisted ({len(args.binaries)} binaries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
