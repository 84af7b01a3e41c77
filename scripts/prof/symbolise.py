#!/usr/bin/env python3
"""Turn sigprof.c dumps into a table of the hottest symbols.

usage: symbolise.py DUMP_DIR [TOP]

Every sampled pc is attributed to the mapped file that contains it and,
within the file, to the nearest preceding function symbol `nm` lists.
A file's load address is taken as its lowest mapping, which is right
for position-independent executables and shared objects.
"""
import bisect, collections, glob, re, subprocess, sys

def symbols(path):
    """(addresses, names) of the functions `path` defines, sorted by address."""
    out = []
    for flags in (["-C", "--defined-only"], ["-C", "-D", "--defined-only"]):
        nm = subprocess.run(["nm", *flags, path], capture_output=True, text=True)
        for line in nm.stdout.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                out.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
    out = sorted(set(out))
    return [a for a, _ in out], [n for _, n in out]

def main():
    dumps = glob.glob(sys.argv[1] + "/*.prof")
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    counts, tables = collections.Counter(), {}
    for dump in dumps:
        maps, pcs = open(dump).read().split("--\n")
        ranges, base = [], {}
        for m in maps.splitlines():
            f = m.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                ranges.append((lo, hi, f[5]))
                base[f[5]] = min(lo, base.get(f[5], lo))
        for pc in (int(x, 16) for x in pcs.split()):
            path = next((p for lo, hi, p in ranges if lo <= pc < hi), None)
            if path is None:
                counts["[kernel, vdso or anonymous memory]"] += 1
                continue
            if path not in tables:
                tables[path] = symbols(path)
            addrs, names = tables[path]
            i = bisect.bisect_right(addrs, pc - base[path]) - 1
            name = names[i] if i >= 0 else "?"
            counts[f"{name}  [{path.rsplit('/', 1)[-1]}]" if ".so" in path else name] += 1
    total = sum(counts.values())
    print(f"{total} samples of CPU time from {len(dumps)} processes")
    for name, n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")

if __name__ == "__main__":
    main()
