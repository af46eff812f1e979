#!/usr/bin/env python3
"""Public functions that nothing outside their own file names.

For every `pub fn` above a file's first `#[cfg(test)]` line in
crates/*/src, counts whole-word uses of its name in the product code of
the other files: crates/*/src, src/, benchmark/src and examples/, each
file cut at its first `#[cfg(test)]` line. Prints one line per function
whose name has no such use:

    <file>\t<name>\town-file uses: <n>

where <n> counts the name's other uses in the product part of its own
file. A name that collides with another function's (`max`, `new`, ...)
counts as used, so colliding names need checking by hand.

Usage: scripts/pub_census.py [REPO_ROOT]   (default: the current directory)
"""

import pathlib
import re
import sys

root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")


def product_part(path):
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("#[cfg(test)]"):
            break
        lines.append(line)
    return "\n".join(lines)


defining = sorted(root.glob("crates/*/src/**/*.rs"))
using = defining + [
    p for d in ("src", "benchmark/src", "examples") for p in sorted(root.glob(d + "/**/*.rs"))
]
text = {p: product_part(p) for p in using}
pub_fn = re.compile(r"^\s*pub(?:\s+const)?(?:\s+async)?\s+fn\s+(\w+)", re.M)

unused = 0
for path in defining:
    for m in pub_fn.finditer(text[path]):
        name = re.compile(r"\b" + m.group(1) + r"\b")
        if any(name.search(t) for p, t in text.items() if p != path):
            continue
        unused += 1
        own = len(name.findall(text[path])) - 1
        print(f"{path.relative_to(root)}\t{m.group(1)}\town-file uses: {own}")
print(f"{unused} pub fn with no use outside their own file", file=sys.stderr)
