#!/usr/bin/env python3
"""Counts the non-comment, non-test Rust lines under crates/*/src and src/.

    python3 .github/scripts/count_lines.py [ROOT]

Blank lines, lines that start with `//` and `#[cfg(test)]` items (the
attribute and the item it gates, up to its closing brace or semicolon)
are skipped. Prints the count.
"""

import glob
import os
import sys


def count(path):
    n = 0
    skip = False
    depth = 0
    opened = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            s = line.strip()
            if skip:
                depth += s.count("{") - s.count("}")
                opened = opened or "{" in s
                if (opened and depth <= 0) or (not opened and s.endswith(";")):
                    skip = False
                continue
            if s.startswith("#[cfg(test)]"):
                skip, depth, opened = True, 0, False
                continue
            if s and not s.startswith("//"):
                n += 1
    return n


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = glob.glob(os.path.join(root, "crates", "*", "src", "**", "*.rs"), recursive=True)
    files += glob.glob(os.path.join(root, "src", "**", "*.rs"), recursive=True)
    print(sum(count(f) for f in files))


if __name__ == "__main__":
    main()
