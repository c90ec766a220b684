#!/usr/bin/env python3
"""Self and inclusive share of samples per physical function.

usage: symbolize.py [--top N] [--under NAME] hostprof.out...    (N defaults to 25)

A sample counts as *self* time of the function holding its instruction
pointer and as *inclusive* time of every distinct function on its frame
chain. Functions are the symbols `nm` finds, so inlined code is charged to
the function it was inlined into, which is where the CPU ran it. An object
stripped of its static symbol table (libc) still exports a dynamic one
(`nm -D`): its code is charged to the nearest exported symbol below the
address, printed `[libc.so.6]~malloc` — a region, not a function, since the
static functions in between carry no name. Several files — repetitions of
one run — are added up. `--under NAME` keeps only the samples with a
function whose name contains NAME on their chain, cut above it: the
inclusive table then splits that function's samples by what it called.
"""
import bisect, collections, functools, os, re, subprocess, sys

args = sys.argv[1:]
top = int(args.pop(args.index("--top") + 1)) if "--top" in args else 25
under = args.pop(args.index("--under") + 1) if "--under" in args else None
paths = [a for a in args if a not in ("--top", "--under")]

@functools.lru_cache(maxsize=None)
def symbols(obj):
    # The static table; for a stripped object the dynamic one, whose names
    # carry a version suffix and whose `i` entries are ifunc resolvers.
    for table, label in (([], "{}"), (["-D"], f"[{os.path.basename(obj)}]~{{}}")):
        out = subprocess.run(["nm", "-C", "-n", *table, obj], capture_output=True, text=True).stdout
        syms = [l.split(None, 2) for l in out.splitlines()]
        syms = [(int(s[0], 16), s[2]) for s in syms if len(s) == 3 and s[1] in "tTwWi"]
        if syms:
            break
    names = [re.sub(r"::h[0-9a-f]{16}$|@.*$", "", n) for _, n in syms]
    return [a for a, _ in syms], [label.format(n) for n in names]

self_n, incl_n, total = collections.Counter(), collections.Counter(), 0
for path in paths:
    head, _, tail = open(path).read().partition("--samples--\n")
    # Executable mappings, each with its file's load base: the lowest mapping
    # of that file, ELF virtual address 0 of a position-independent object.
    base, spans = {}, []
    for line in head.splitlines():
        f = line.split()
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        base.setdefault(f[5], lo)
        if "x" in f[1]:
            spans.append((lo, hi, f[5]))

    @functools.lru_cache(maxsize=None)
    def function(pc):
        for lo, hi, obj in spans:
            if lo <= pc < hi:
                addrs, names = symbols(obj)
                i = bisect.bisect_right(addrs, pc - base[obj]) - 1
                return names[i] if i >= 0 else f"[{os.path.basename(obj)}]"
        return "[unmapped]"

    for line in tail.splitlines():
        pcs = [int(x, 16) for x in line.split()]
        if not pcs:
            continue
        # A return address points past its call; step back into the caller.
        chain = [function(pcs[0])] + [function(pc - 1) for pc in pcs[1:]]
        if under:
            cut = next((i for i, f in enumerate(chain) if under in f), None)
            if cut is None:
                continue
            chain = chain[: cut + 1]
        total += 1
        self_n[chain[0]] += 1
        incl_n.update(set(chain))

print(f"{total} samples from {len(paths)} file(s)" + (f" under {under}" if under else ""))
for title, counts in (("self", self_n), ("inclusive", incl_n)):
    print(f"\n{title:>9}  samples  function")
    for name, n in counts.most_common(top):
        print(f"{100 * n / max(total, 1):8.1f}%  {n:7d}  {name}")
