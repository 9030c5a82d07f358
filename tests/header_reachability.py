#!/usr/bin/env python3
"""Fail if a header under src/ is reachable from no program.

Walks `#include "..."` from every source file in tools/, bench/, perfbench/
and examples/. Reaching a header also reaches its implementation file (the
.cpp with the same stem), whose includes are walked too. Quoted includes
resolve against the including file's directory first, then against src/.

Any src/ header the walk never reaches is code only the tests call: either
give it a real caller or delete it. Prints every unreachable header and
exits 1; exits 0 when all are reachable.

Usage: header_reachability.py <repo-root>
"""
import os
import re
import sys

ENTRY_DIRS = ("tools", "bench", "perfbench", "examples")
SOURCE_EXT = (".cpp", ".cc", ".hpp", ".h")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def sources_under(path):
    for dirpath, _, files in os.walk(path):
        for name in sorted(files):
            if name.endswith(SOURCE_EXT):
                yield os.path.join(dirpath, name)


def resolve(include, from_file, src):
    for base in (os.path.dirname(from_file), src):
        candidate = os.path.normpath(os.path.join(base, include))
        if os.path.isfile(candidate):
            return candidate
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    root = os.path.abspath(sys.argv[1])
    src = os.path.join(root, "src")

    pending = [f for d in ENTRY_DIRS for f in sources_under(os.path.join(root, d))]
    seen = set()
    while pending:
        path = pending.pop()
        if path in seen:
            continue
        seen.add(path)
        stem, ext = os.path.splitext(path)
        if ext in (".hpp", ".h") and os.path.isfile(stem + ".cpp"):
            pending.append(stem + ".cpp")
        with open(path, encoding="utf-8") as f:
            for include in INCLUDE.findall(f.read()):
                target = resolve(include, path, src)
                if target is not None:
                    pending.append(target)

    unreachable = sorted(
        os.path.relpath(h, src)
        for h in sources_under(src)
        if h.endswith((".hpp", ".h")) and h not in seen)
    for header in unreachable:
        print(f"unreachable from tools/, bench/, perfbench/ and examples/: "
              f"src/{header}")
    if unreachable:
        return 1
    print("every src/ header is reachable from a program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
