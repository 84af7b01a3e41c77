#!/usr/bin/env python3
"""Count the non-test call sites of every public `Mpi` method.

    python3 scripts/usecount.py [REPO]

Lists each `pub fn` declared directly in an `impl Mpi { … }` block of
`crates/cmpi-core/src`, with the number of `.name(` / `.name::<` calls in
the non-test code of `crates/*/src`, `src/`, `examples/` and
`benchmark/src`, fewest first. Non-test code is a file's lines before its
first line that is exactly `#[cfg(test)]` (as `scripts/loc.sh` counts).

A zero is a method nothing but tests calls. A non-zero count for a name
other types also use (`get`, `reduce`, `test`) can be someone else's
method: look before trusting it.
"""
import glob
import os
import re
import sys


def non_test(path):
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == "#[cfg(test)]":
                break
            out.append(line)
    return "".join(out)


def mpi_methods():
    """(name, file) of every `pub fn` at the top level of an `impl Mpi`."""
    found = []
    for path in sorted(glob.glob("crates/cmpi-core/src/*.rs")):
        depth, in_mpi = 0, False
        for line in non_test(path).splitlines():
            if depth == 0 and re.match(r"\s*impl\s+Mpi\s*\{", line):
                in_mpi = True
            m = re.match(r"\s*pub fn (\w+)", line)
            if in_mpi and depth == 1 and m:
                found.append((m.group(1), path))
            depth += line.count("{") - line.count("}")
            if depth == 0:
                in_mpi = False
    return found


def main():
    os.chdir(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__) + "/..")
    sources = []
    for pattern in ["crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs", "benchmark/src/**/*.rs"]:
        sources += glob.glob(pattern, recursive=True)
    text = "".join(non_test(p) for p in sources)
    rows = []
    for name, path in mpi_methods():
        calls = len(re.findall(r"\." + name + r"\s*(?:::<|\()", text))
        rows.append((calls, name, path))
    for calls, name, path in sorted(rows):
        print(f"{calls:4d}  {name:24s} {path}")


if __name__ == "__main__":
    main()
