#!/usr/bin/env python3
"""Turn sigprof.c dumps into tables of the hottest symbols.

usage: symbolise.py DUMP_DIR [TOP]
       symbolise.py DUMP_DIR --callers SYMBOL [DEPTH]

Every sampled address is attributed to the mapped file that contains it
and, within the file, to the function symbol of `nm -S` whose extent
covers it. A pc past the end of the nearest preceding symbol belongs to
code the file does not name — a stripped libc keeps only its exported
symbols, so the IFUNC'd memmove/memset variants and the allocator's
internals have none — and is reported by file and 4 KiB page
(`libc.so.6+0x16d000`) rather than under a neighbour it is not part of.
A symbol without a size (hand-written assembly) keeps every pc up to
the next symbol. A file's load address is taken as its lowest mapping,
which is right for position-independent executables and shared objects.

Two tables. "self" counts each sample once, under the symbol of its pc.
"inclusive" counts each sample once under every distinct symbol on its
stack: the pc's and its callers', whose return addresses are looked up
one byte back, inside the call instruction. Callers are only as good as
the frame-pointer chain sigprof.c could follow.

With --callers, only samples whose pc is in SYMBOL (an exact name as the
tables print it, e.g. `libc.so.6+0x16d000  [libc.so.6]` or just
`libc.so.6+0x16d000`) count, and the table is of their caller chains,
DEPTH (default 3) callers deep, innermost first: the way to say whose
memmove an unnamed libc page is.
"""
import bisect, collections, glob, re, subprocess, sys

def symbols(path):
    """(addresses, sizes, names) of the functions `path` defines, sorted by address."""
    out = {}
    for flags in (["-C", "-S", "--defined-only"], ["-C", "-S", "-D", "--defined-only"]):
        nm = subprocess.run(["nm", *flags, path], capture_output=True, text=True)
        for line in nm.stdout.splitlines():
            # "addr size type name", or "addr type name" for a symbol without a size.
            m = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?([tTwW]) (.*)", line)
            if m:
                addr, size = int(m[1], 16), int(m[2] or "0", 16)
                name = re.sub(r"::h[0-9a-f]{16}$", "", m[4])
                # Aliases share an address; keep the one with the largest extent.
                if size >= out.get(addr, (-1, ""))[0]:
                    out[addr] = (size, name)
    addrs = sorted(out)
    return addrs, [out[a][0] for a in addrs], [out[a][1] for a in addrs]

def attribute(table, offset, file):
    """The name `offset` into `file` is counted under."""
    addrs, sizes, names = table
    i = bisect.bisect_right(addrs, offset) - 1
    if i >= 0 and (sizes[i] == 0 or offset < addrs[i] + sizes[i]):
        return names[i]
    return f"{file}+{offset & ~0xfff:#x}"

def print_table(title, counts, samples, top):
    print(title)
    for name, n in counts.most_common(top):
        print(f"{100 * n / samples:6.2f}%  {n:7d}  {name}")

def main():
    args = sys.argv[1:]
    if len(args) >= 3 and args[1] == "--callers":
        dump_dir, leaf, top = args[0], args[2], 20
        depth = int(args[3]) if len(args) > 3 else 3
    elif 1 <= len(args) <= 2 and not args[-1].startswith("--"):
        dump_dir, leaf, depth = args[0], None, 0
        top = int(args[1]) if len(args) > 1 else 20
    else:
        sys.exit(__doc__.split("\n\n")[1])
    dumps = glob.glob(dump_dir + "/*.prof")
    own, inclusive, chains = collections.Counter(), collections.Counter(), collections.Counter()
    tables, samples = {}, 0
    for dump in dumps:
        maps, stacks = open(dump).read().split("--\n")
        ranges, base = [], {}
        for m in maps.splitlines():
            f = m.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                ranges.append((lo, hi, f[5]))
                base[f[5]] = min(lo, base.get(f[5], lo))

        def name_of(pc):
            path = next((p for lo, hi, p in ranges if lo <= pc < hi), None)
            if path is None:
                return "[kernel, vdso or anonymous memory]"
            if path not in tables:
                tables[path] = symbols(path)
            file = path.rsplit("/", 1)[-1]
            name = attribute(tables[path], pc - base[path], file)
            return f"{name}  [{file}]" if ".so" in path and not name.startswith(file) else name

        for line in stacks.splitlines():
            frames = [int(x, 16) for x in line.split()]
            if not frames:
                continue
            samples += 1
            names = [name_of(frames[0])] + [name_of(ra - 1) for ra in frames[1:]]
            own[names[0]] += 1
            inclusive.update(set(names))
            if leaf is not None and leaf in (names[0], names[0].split("  [")[0]):
                chains[" <- ".join(names[1:1 + depth]) or "[no callers]"] += 1
    print(f"{samples} wall-time samples (100 us per worker thread) from {len(dumps)} processes")
    if leaf is not None:
        hits = sum(chains.values())
        print(f"{hits} of them ({100 * hits / max(samples, 1):.2f}%) have their pc in {leaf}")
        print_table(f"callers of {leaf}, {depth} deep, innermost first (share of its samples):",
                    chains, max(hits, 1), top)
        return
    print_table("self:", own, samples, top)
    print_table("inclusive (each symbol once per sample, callers by frame pointer):",
                inclusive, samples, top)

if __name__ == "__main__":
    main()
