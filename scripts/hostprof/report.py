#!/usr/bin/env python3
"""Self time by function and by mechanism from a hostprof sample file.

    report.py [--top N] [--lines] SAMPLES   (SAMPLES.maps must sit beside it)

Functions are the ELF symbols (`nm -C`) holding each sample's pc. A
mechanism is the first MECHANISMS pattern that matches the innermost
inlined frame at that pc (`addr2line -i`), so a B-tree search inlined into
`process_incoming` counts as B-tree. `--lines` adds self time per source
line of the innermost frame.
"""
import bisect, collections, re, struct, subprocess, sys

MECHANISMS = [
    ("waker / notify", r"Notif|[Ww]aker|wake|ReadyQueue|ready::"),
    ("fault predicates", r"FaultPlan|is_active|crash_gate|reliability_active|fault_of|slowdown|frozen|peer_dead"),
    # A stripped library names a sample by the nearest exported symbol: in
    # Debian's glibc 2.36 the malloc internals follow __default_morecore and
    # the string and memory copies follow __nss_database_lookup.
    ("b-tree + allocation", r"btree|BTree|malloc|free|__default_morecore|alloc::alloc::|__rust_(de|re)?alloc|RawVec|Rc::new"),
    ("message moves", r"memcpy|memmove|__nss_database_lookup"),
    ("timer wheel", r"wheel|Wheel"),
    ("trace + metrics", r"nowlab_trace|nowlab_metrics"),
]


def mechanism(fn, symbol):
    """The first mechanism naming the innermost inlined function, else the
    symbol that holds it; generic arguments (`<..., alloc::alloc::Global>`)
    are not part of a name."""
    for name in (fn, symbol):
        while (bare := re.sub(r"<[^<>]*>", "", name)) != name:
            name = bare
        for mech, pat in MECHANISMS:
            if re.search(pat, name):
                return mech
    return "other"


def load(path):
    words = open(path, "rb").read()
    words = struct.unpack(f"<{len(words) // 8}Q", words)
    i, stacks = 0, []
    while i < len(words):
        n = words[i]
        stacks.append(words[i + 1 : i + 1 + n])
        i += 1 + n
    maps = []
    for line in open(path + ".maps"):
        f = line.split()
        if len(f) >= 6 and "x" in f[1] and f[5].startswith("/"):
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    return stacks, sorted(maps)


def sh(*cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True).stdout


class Elf:
    def __init__(self, path):
        self.path = path
        self.segs = [(int(f[1], 16), int(f[2], 16), int(f[4], 16))
                     for f in (l.split() for l in sh("readelf", "-lW", path).splitlines())
                     if f and f[0] == "LOAD"]
        syms = [l.split(" ", 2) for l in sh("nm", "-C", "-n", "--defined-only", path).splitlines()]
        syms = syms or [l.split(" ", 2) for l in sh("nm", "-D", "-C", "-n", "--defined-only", path).splitlines()]
        syms = [(int(s[0], 16), s[2]) for s in syms if len(s) == 3 and s[1] in "tTwW"]
        self.addrs, self.names = [a for a, _ in syms], [n for _, n in syms]

    def vaddr(self, file_off):
        for off, va, size in self.segs:
            if off <= file_off < off + size:
                return file_off - off + va
        return file_off

    def symbol(self, va):
        i = bisect.bisect_right(self.addrs, va) - 1
        return self.names[i] if i >= 0 else f"?? {self.path}"


def main(argv):
    top = int(argv[argv.index("--top") + 1]) if "--top" in argv else 25
    path = [a for a in argv if not a.startswith("--") and not a.isdigit()][-1]
    stacks, maps = load(path)
    elves = {}

    def where(addr):  # (file, vaddr) of a runtime address, or None
        i = bisect.bisect_right(maps, (addr, float("inf"))) - 1
        if i < 0 or not maps[i][0] <= addr < maps[i][1]:
            return None
        lo, _, off, file = maps[i]
        if file not in elves:
            elves[file] = Elf(file)
        return file, elves[file].vaddr(addr - lo + off)

    # The pc, then up to three callers (a return address minus one lies
    # inside its call instruction), for samples in code without line info.
    samples = [[where(a) for a in [st[0]] + [r - 1 for r in st[1:4]]] for st in stacks]
    inner = {}  # (file, vaddr) -> (innermost inlined function, file:line)
    for file in list(elves):
        vas = sorted({f[1] for s in samples for f in s if f and f[0] == file})
        out = sh("addr2line", "-a", "-f", "-i", "-C", "-e", file, stdin="".join(f"{va:#x}\n" for va in vas))
        lines, i = out.splitlines(), 0
        while i + 2 < len(lines):  # address, then (function, file:line) per inline level
            if lines[i + 1] != "??":
                inner[(file, int(lines[i], 16))] = (lines[i + 1], lines[i + 2].rsplit("/", 1)[-1])
            i += 3
            while i < len(lines) and not lines[i].startswith("0x"):
                i += 1
    by_fn, by_mech, by_line = (collections.Counter() for _ in range(3))
    for frames in samples:
        leaf = frames[0]
        symbol = elves[leaf[0]].symbol(leaf[1]) if leaf else "?? unmapped"
        fn, line = inner.get(leaf, (symbol, "??"))
        by_line[f"{line}  {fn[:60]}"] += 1
        mech = mechanism(fn, symbol)
        if mech == "other" and leaf not in inner:  # a library helper is its caller's work
            caller = next((inner[f][0] for f in frames if f in inner), fn)
            mech = mechanism(caller, caller)
        # The benchmark's host-speed kernel, not the simulator: its
        # `BinaryHeap::pop` would otherwise rank as a queue of the kernel's.
        if any(f and "yardstick" in elves[f[0]].symbol(f[1]) for f in frames):
            symbol = mech = "harness yardstick"
        by_fn[symbol] += 1
        by_mech[mech] += 1
    print(f"{len(samples)} samples")
    tables = [("function", by_fn), ("mechanism", by_mech)] + [("line", by_line)] * ("--lines" in argv)
    for title, table in tables:
        print(f"\nself time by {title}")
        for name, n in table.most_common(top):
            print(f"{100 * n / len(samples):6.2f} %  {n:8}  {name[:110]}")


if __name__ == "__main__":
    main(sys.argv[1:])
