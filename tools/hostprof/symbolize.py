#!/usr/bin/env python3
"""Self and inclusive share of samples per physical function.

usage: symbolize.py [--top N] [--under NAME] [--leaf NAME] [--inlined | --frames K] hostprof.out...
                                                                     (N defaults to 25)

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
`--leaf NAME` keeps only the samples whose leaf function contains NAME:
with `--frames 2` it charges a libc region such as the `memcpy` family
to the workspace code that called into it.
`--inlined` splits the leaf function by the frames inlined into it
(`addr2line -i`): *self* charges a sample to the source file of its
innermost inlined frame, so inlined library code such as
`alloc/src/collections/btree/search.rs` gets a row, and *inclusive* to
every file on the leaf's inline chain; an address without line
information keeps its function's name. `--frames K` replaces both tables
with one that groups samples by their first K workspace frames, leaf
first: frames of `alloc::`, `core::`, `std::`, the Rust allocator shims
and libc are skipped, so a heap profile's samples are charged to the code
that owns the memory rather than to the `finish_grow` that grew it.
`--help` prints this text; an unknown flag or an unreadable file prints
the usage line and exits 2.
"""
import bisect, collections, functools, os, re, subprocess, sys

def closed_stdout(kind, value, tb):
    # A reader that stops early (`| head`) is not a failure: exit 0 quietly.
    if issubclass(kind, BrokenPipeError):
        os._exit(0)
    sys.__excepthook__(kind, value, tb)

sys.excepthook = closed_stdout

def fail(why):
    # The usage line and exit 2, as the workspace's Rust CLIs do.
    print(f"symbolize.py: {why}\n{__doc__.splitlines()[2]}", file=sys.stderr)
    sys.exit(2)

# --help first; then each option with its value; the rest are files.
args, opts, texts = sys.argv[1:], {}, []
if "--help" in args or "-h" in args:
    print(__doc__, flush=True)
    sys.exit(0)
while args:
    arg = args.pop(0)
    if arg == "--inlined":
        opts[arg] = True
    elif arg in ("--top", "--under", "--leaf", "--frames"):
        if not args:
            fail(f"{arg} needs a value")
        opts[arg] = args.pop(0)
        if arg in ("--top", "--frames") and not opts[arg].isdigit():
            fail(f"{arg} takes a number, not {opts[arg]!r}")
    elif arg.startswith("-"):
        fail(f"unknown flag {arg}")
    else:
        try:
            texts.append(open(arg).read())
        except OSError as e:
            fail(f"cannot read {arg}: {e.strerror}")
if not texts:
    fail("no profile given")
top = int(opts.get("--top", 25))
under, leaf = opts.get("--under"), opts.get("--leaf")
frames = int(opts["--frames"]) if "--frames" in opts else None
inlined = "--inlined" in opts
# Library and allocator frames, which --frames looks through.
RUNTIME = re.compile(r"^<?(alloc|core|std)::|^__r(ust|dl|g)_|^__rustc::|^\[")

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

def short(path):
    # A standard-library file from its crate on; a workspace file from the
    # repository root.
    for mark in ("/library/", os.getcwd() + "/"):
        if mark in path:
            return path.split(mark, 1)[1]
    return path

def inline_chains(obj, offsets):
    """Offset -> files of its inline chain, innermost first; one addr2line call."""
    out = subprocess.run(["addr2line", "-a", "-i", "-e", obj, *(hex(o) for o in offsets)],
                         capture_output=True, text=True).stdout
    files, addr = {}, None
    for line in out.splitlines():
        if line.startswith("0x"):
            addr = int(line, 16)
        elif not line.startswith("??"):
            files.setdefault(addr, []).append(short(line.rsplit(":", 1)[0]))
    return files

self_n, incl_n, total = collections.Counter(), collections.Counter(), 0
leaves, groups = collections.Counter(), collections.Counter()
for text in texts:
    head, _, tail = text.partition("--samples--\n")
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

    def locate(pc):
        return next(((obj, pc - base[obj]) for lo, hi, obj in spans if lo <= pc < hi), None)

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
        if leaf and leaf not in chain[0]:
            continue
        if under:
            cut = next((i for i, f in enumerate(chain) if under in f), None)
            if cut is None:
                continue
            chain = chain[: cut + 1]
        total += 1
        self_n[chain[0]] += 1
        incl_n.update(set(chain))
        if inlined:
            leaves[(locate(pcs[0]), chain[0])] += 1
        if frames:
            own = [f for f in chain if not RUNTIME.search(f)]
            groups[" < ".join(own[:frames]) or "[runtime only]"] += 1

if inlined:
    by_obj = collections.defaultdict(set)
    for (where, _), _ in leaves.items():
        if where:
            by_obj[where[0]].add(where[1])
    chains = {(obj, o): c for obj, offs in by_obj.items()
              for o, c in inline_chains(obj, sorted(offs)).items()}
    self_n, incl_n = collections.Counter(), collections.Counter()
    for (where, name), n in leaves.items():
        chain = chains.get(where, [name])
        self_n[chain[0]] += n
        for f in set(chain):
            incl_n[f] += n

print(f"{total} samples from {len(texts)} file(s)" + (f" under {under}" if under else "")
      + (f" with leaf {leaf}" if leaf else ""))
tables = ((f"first {frames}", groups),) if frames else (("self", self_n), ("inclusive", incl_n))
column = "workspace frames, callee < caller" if frames else \
    "source file (inlined)" if inlined else "function"
for title, counts in tables:
    print(f"\n{title:>9}  samples  {column}")
    for name, n in counts.most_common(top):
        print(f"{100 * n / max(total, 1):8.1f}%  {n:7d}  {name}")
sys.stdout.flush()
