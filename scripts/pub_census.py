#!/usr/bin/env python3
"""Public functions and items that no other crate and no test needs.

The rule: a `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub type`,
`pub const` or `pub static` in crates/*/src is `pub` only because another
crate's product code, or a test target, names it. Everything else is
`pub(crate)`, so rustc's `dead_code` lint checks it like any private
item. Fields and modules are out of scope.

The compiler decides, not a name match. On a temporary copy of the
working tree the script makes every such product item in crates/*/src
(every one above its file's first line starting with `#[cfg(test)]`)
`pub(crate)`, then checks

    cargo check --workspace --lib --bins --examples --tests --benches
    cargo check --manifest-path benchmark/Cargo.toml --all-targets
    cargo test --workspace --doc
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

and puts `pub` back on exactly the items a privacy error names (E0446,
E0603, E0624: the error's spans point at the definition), or that a
`private_interfaces`/`private_bounds` warning finds in a signature that
stays public. A `pub use`
re-export is not a caller: when one fails, the name leaves that `pub use`
and, if it is the crate's own item, is kept in the crate by a
`pub(crate) use`; only a caller through the re-exported path puts `pub`
back (and the re-export with it). This repeats until every check is
clean, then prints the items that stayed narrow:

    <file>:<line>\t<Type::>name

and on stderr how many of the product `pub` items that is. A doc link
is no caller either: when `cargo doc` fails on a link to a narrowed item
(`rustdoc::private_intra_doc_links`, or `broken_intra_doc_links` for a
name that left a re-export), the item stays narrow and its line gains
`\tdoc link at <file>:<line>` for each such link, which narrowing it
means rewriting as a plain code span. Any error
that is not a privacy error stops the script (exit 2) with the
compiler's message, since then the result would not be exact. A clean
tree prints no item and exits 0; otherwise it exits 1.

It takes about 2½ minutes on a 2-core VM, in about 40 rounds (set
CARGO_TARGET_DIR to keep a target directory between runs; without it the
copy's own is used and deleted). The working tree itself is never
written.

With -v it says, on stderr, why each item got `pub` back: the error code
and the caller's file and line.

Usage: scripts/pub_census.py [-v] [REPO_ROOT]   (default: the current directory)
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

args = [a for a in sys.argv[1:] if a != "-v"]
root = pathlib.Path(args[0] if args else ".").resolve()
log = sys.stderr if "-v" in sys.argv[1:] else open(os.devnull, "w")
PUB_ITEM = re.compile(r"^(\s*)pub(\s+(?:(?:const\s+)?(?:async\s+)?fn|struct|enum|trait|type|const"
                      r"|static)\s+(\w+))")
IMPL = re.compile(r"^\s*impl\b.*?(?:\bfor\s+)?([A-Za-z_]\w*)(?:<[^{]*>)?\s*(?:where\b.*)?\{?\s*$")


def product_lines(path):
    lines = path.read_text().split("\n")
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return lines, i
    return lines, len(lines)


def owner(lines, i):
    """`Type::` of the impl block around line i, or '' for a free item."""
    indent = len(lines[i]) - len(lines[i].lstrip())
    for j in range(i - 1, -1, -1):
        line = lines[j]
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            m = IMPL.match(line)
            return m.group(1) + "::" if m else ""
    return ""


def crate_of(rel):
    return rel.parts[1] if rel.parts[0] == "crates" else "nowlab"


def use_statements(lines):
    """(first, last) line index of every `pub use ...;` statement."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None and re.match(r"^\s*pub use\b", line):
            start = i
        if start is not None and ";" in line:
            out.append((start, i))
            start = None
    return out


class Census:
    def __init__(self, src, work):
        self.work = work
        self.files = {}  # rel -> pristine lines
        self.fns = {}  # (rel, line) -> (crate, "Type::" or "", name) of an item
        self.dropped = {}  # (rel, first line of a `pub use`) -> {name: crate's own item?}
        for path in sorted(src.glob("crates/*/src/**/*.rs")) + sorted(src.glob("src/**/*.rs")):
            rel = path.relative_to(src)
            lines, end = product_lines(path)
            self.files[rel] = lines
            for i in range(end if rel.parts[0] == "crates" else 0):
                m = PUB_ITEM.match(lines[i])
                if m and "$" not in lines[i]:
                    self.fns[(rel, i)] = (crate_of(rel), owner(lines, i), m.group(3))
        self.narrow = set(self.fns)
        self.links = {}  # (rel, line) of a narrowed item -> doc links that break

    def render(self):
        for rel, pristine in self.files.items():
            lines = list(pristine)
            for key in self.narrow:
                if key[0] == rel:
                    lines[key[1]] = PUB_ITEM.sub(r"\1pub(crate)\2", lines[key[1]], count=1)
            for (frel, first), names in self.dropped.items():
                if frel != rel:
                    continue
                last = next(b for a, b in use_statements(pristine) if a == first)
                for name, own in names.items():
                    for i in range(first, last + 1):
                        cut = lines[i].find("{") + 1 if i == first else 0
                        if "{" not in pristine[first]:
                            cut = lines[i].rfind("::") + 2
                        head, tail = lines[i][:cut], lines[i][cut:]
                        new = re.sub(r"\b" + name + r"\b\s*,?\s*", "", tail, count=1)
                        if new != tail:
                            lines[i] = head + new
                            break
                    if own:
                        prefix = re.match(r"\s*pub use\s+([\w:]*?)(?:\{|\w+;)", pristine[first])
                        lines[last] += " #[allow(unused_imports)] pub(crate) use %s%s;" % (
                            prefix.group(1), name)
                # A `pub use path::name;` that lost its one name goes.
                lines[first] = re.sub(r"\bpub use [\w:]*::;", "", lines[first])
            (self.work / rel).write_text("\n".join(lines))

    def stmt_at(self, rel, line):
        """First line of the `pub use` holding line `line` of `rel`, or None."""
        for first, last in use_statements(self.files.get(rel, [])):
            if first <= line <= last:
                return first
        return None

    def restore(self, key, code, caller):
        if key in self.narrow:
            print(f"pub again: {key[0]}:{key[1] + 1} {''.join(self.fns[key][1:])} "
                  f"({code} at {caller})", file=log)
        self.narrow.discard(key)
        name = self.fns[key][2]
        for names in self.dropped.values():
            names.pop(name, None)

    def rel(self, file_name):
        path = pathlib.Path(file_name)
        if path.is_absolute():
            try:
                return path.relative_to(self.work)
            except ValueError:
                return None
        return path

    def diagnose(self, code, message, spans):
        """Acts on one error; returns False if it names no narrowed item."""
        spans = [(self.rel(f), line - 1, primary) for f, line, primary in spans]
        rel, line = next(((r, n) for r, n, primary in spans if primary), (None, None))
        if code in PRIVATE + LEAKED:
            names = re.findall(r"`(\w+)`", message)[:1]
        elif code in UNRESOLVED:
            # A name a `pub use` dropped, or one a glob re-export now skips.
            names = [p.split("::")[-1] for p in re.findall(r"`([\w:]+)`", message)]
        else:
            return False
        names = [n for n in names if any(name == n for _, _, name in self.fns.values())]
        first = self.stmt_at(rel, line)
        if names and first is not None:
            # A `pub use` is no caller: the names leave it.
            for name in names:
                own = (crate_of(rel), "", name) in self.fns.values()
                self.dropped.setdefault((rel, first), {})[name] = own
            return True
        if code in PRIVATE + LEAKED:
            # The definition, or the `pub(crate) use` standing in for it.
            hit = [(r, n) for r, n, _ in spans if (r, n) in self.fns]
            for r, n, _ in spans:
                if names and names[0] in self.dropped.get((r, self.stmt_at(r, n)), {}):
                    hit += [k for k, v in self.fns.items() if v == (crate_of(r), "", names[0])]
        else:
            hit = []
            for path in re.findall(r"`([\w:]+)`", message):
                *mods, last = path.split("::")
                named = [k for k, v in self.fns.items() if v[1:] == ("", last)]
                hit += [k for k in named if self.fns[k][0] in mods] or named
        for key in hit:
            self.restore(key, code, f"{rel}:{line + 1}" if rel else "?")
        return bool(hit)


def cargo_check(census, args):
    out = subprocess.run(["cargo", "check", "--offline", "--message-format=json", *args],
                         cwd=census.work, capture_output=True, text=True)
    acted, unknown = False, []
    for line in out.stdout.splitlines():
        msg = json.loads(line)
        diag = msg.get("message") if msg.get("reason") == "compiler-message" else None
        if not diag or not diag.get("code"):
            continue
        if diag["level"] != "error" and diag["code"]["code"] not in LEAKED:
            continue
        # The definition is a labelled span of the error or of a note
        # under it; a `help` names look-alike functions, not this one.
        spans = [(s["file_name"], s["line_start"], s["is_primary"]) for s in diag["spans"]]
        spans += [(s["file_name"], s["line_start"], False) for c in diag["children"]
                  if c["level"] == "note" for s in c["spans"]]
        if census.diagnose(diag["code"]["code"], diag["message"], spans):
            acted = True
        elif diag["level"] == "error":
            unknown.append(diag["rendered"])
    if out.returncode and not acted and not unknown:
        unknown.append(out.stderr[-4000:])
    return acted, unknown


PRIVATE = ("E0364", "E0365", "E0446", "E0603", "E0624")
# Warnings that a narrowed type shows in a signature that stays public.
LEAKED = ("private_interfaces", "private_bounds")
UNRESOLVED = ("E0423", "E0425", "E0432", "E0433")
DOC_ERROR = re.compile(r"^error\[(E\d+)\]: (.*)$")
DOC_SPAN = re.compile(r"^\s*(?:-->|:::)\s+(\S+?):(\d+):\d+")
DOC_SECTION = re.compile(r"^\s*=?\s*(note|help)\b")


DOC_LINK = ("rustdoc::private_intra_doc_links", "rustdoc::broken_intra_doc_links")


def cargo_doc(census):
    """Notes every doc link to a narrowed item; never puts `pub` back."""
    out = subprocess.run(["cargo", "doc", "--offline", "--workspace", "--no-deps",
                          "--message-format=json"], cwd=census.work, capture_output=True,
                         text=True, env=dict(os.environ, RUSTDOCFLAGS="-D warnings"))
    census.links, unknown = {}, []
    for line in out.stdout.splitlines():
        msg = json.loads(line)
        diag = msg.get("message") if msg.get("reason") == "compiler-message" else None
        if not diag or not diag.get("code") or diag["level"] != "error":
            continue
        names = re.findall(r"`([\w:]+)`", diag["message"])
        span = next((s for s in diag["spans"] if s["is_primary"]), None)
        hit = []
        if diag["code"]["code"] in DOC_LINK and names and span:
            rel = census.rel(span["file_name"])
            target = names[-1].split("::")[-1]
            hit = [k for k in census.narrow if census.fns[k][2] == target]
            hit = [k for k in hit if rel and census.fns[k][0] == crate_of(rel)] or hit
        for key in hit:
            census.links.setdefault(key, set()).add(f"{rel}:{span['line_start']}")
        if not hit:
            unknown.append(diag["rendered"])
    if out.returncode and not census.links and not unknown:
        unknown.append(out.stderr[-4000:])
    return False, unknown


def doctests(census):
    out = subprocess.run(["cargo", "test", "--offline", "--workspace", "--doc", "-q"],
                         cwd=census.work, capture_output=True, text=True)
    acted, unknown, diag, section = False, [], None, "error"
    text = out.stdout + "\n" + out.stderr

    def finish(d):
        nonlocal acted
        if d is not None:
            spans = [(f, n, i == 0) for i, (f, n) in enumerate(d[2])]
            acted |= census.diagnose(d[0], d[1], spans)

    for line in text.splitlines():
        if re.match(r"(warning|error)\b", line):
            finish(diag)
            m = DOC_ERROR.match(line)
            diag, section = (m.group(1), m.group(2), []) if m else None, "error"
            continue
        h = DOC_SECTION.match(line)
        if h:
            section = h.group(1)
        s = DOC_SPAN.match(line)
        if s and diag is not None and section != "help":
            diag[2].append((s.group(1), int(s.group(2))))
    finish(diag)
    if out.returncode and not acted:
        unknown.append(text[-4000:])
    return acted, unknown


def main():
    with tempfile.TemporaryDirectory(prefix="pub_census.") as tmp:
        work = pathlib.Path(tmp).resolve() / "repo"
        files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard"], cwd=root,
                               capture_output=True, text=True, check=True).stdout.split()
        for f in files:
            if (root / f).is_file():
                (work / f).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(root / f, work / f)
        os.environ.setdefault("CARGO_TARGET_DIR", str(pathlib.Path(tmp) / "target"))
        census = Census(root, work)
        checks = [
            lambda: cargo_check(census, ["--workspace", "--lib", "--bins", "--examples",
                                         "--tests", "--benches"]),
            lambda: cargo_check(census, ["--manifest-path", "benchmark/Cargo.toml",
                                         "--all-targets"]),
            lambda: doctests(census),
            lambda: cargo_doc(census),
        ]
        rounds = 0
        while True:
            rounds += 1
            census.render()
            for check in checks:
                acted, unknown = check()
                if unknown and not acted:
                    print("\n".join(unknown), file=sys.stderr)
                    print("pub_census: an error that is not about privacy; no result",
                          file=sys.stderr)
                    sys.exit(2)
                if acted:
                    break
            else:
                break
    for rel, line in sorted(census.narrow):
        _, own, name = census.fns[(rel, line)]
        links = "".join(f"\tdoc link at {at}" for at in sorted(census.links.get((rel, line), ())))
        print(f"{rel}:{line + 1}\t{own}{name}{links}")
    print(f"{len(census.narrow)} of {len(census.fns)} product pub items need no other crate "
          f"and no test ({rounds} rounds)", file=sys.stderr)
    sys.exit(1 if census.narrow else 0)


main()
