#!/usr/bin/env python3
"""Count the non-test and the test uses of every `pub fn` in the
workspace's crates.

    python3 scripts/usecount.py [REPO]

Lists each `pub fn` (any visibility that starts with `pub`) declared in
the non-test code of `crates/*/src` and not behind a `#[cfg(...)]` that
requires `test` (such as `#[cfg(all(test, not(cmpi_model)))]`), with two
counts: the times its name appears in the non-test code of
`crates/*/src`, `src/`, `examples/` and `benchmark/src`, and the times it
appears in test code, each other than where a function of that name is
declared. Rows are fewest uses first: uses, test uses, crate, file,
name. Non-test code is a file's lines before its first line that is
exactly `#[cfg(test)]` (as `scripts/loc.sh` counts); test code is those
files' lines from that line on plus every file under a `tests/` or
`benches/` directory (the root's, each crate's and `benchmark/`'s).
Comments and string literals are left out of both counts.

A use is any mention of the name as a whole word: a call, a method call,
a path (`Type::name`) or a function passed by name. A zero uses count
with a non-zero test count is test-only API: if a test of another crate
(or an integration test under `tests/`) is among its callers, it cannot
move into `#[cfg(test)]`, which only its own crate's unit tests see. A
zero in both columns is dead code. A non-zero count for a name that
other items share (`new`, `get`, `len`, a field of the same name) can
be someone else's: look before trusting it.
"""
import glob
import os
import re
import sys

STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
COMMENT = re.compile(r"//.*")
PUB_FN = re.compile(r"^\s*pub(?:\([^)]*\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)", re.M)
DECL = re.compile(r"\bfn\s+(\w+)")
CFG = re.compile(r"^\s*#\[cfg\((.*)\)\]\s*$")


def requires_test(pred):
    """Whether a cfg predicate holds only under `test`: `test` itself, or
    an `all(...)` with such a term at its top level."""
    pred = pred.replace(" ", "")
    if not (pred.startswith("all(") and pred.endswith(")")):
        return pred == "test"
    terms, depth, cur = [], 0, ""
    for ch in pred[4:-1] + ",":
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            terms.append(cur)
            cur = ""
        else:
            cur += ch
    return any(requires_test(t) for t in terms)


def pub_fns(text):
    """Names of the `pub fn`s in `text` that are not test-only."""
    names, test_only = [], False
    for line in text.splitlines():
        cfg = CFG.match(line)
        if cfg:
            test_only = test_only or requires_test(cfg.group(1))
            continue
        m = PUB_FN.match(line)
        if m and not test_only:
            names.append(m.group(1))
        if line.strip() and not line.strip().startswith("#["):
            test_only = False
    return names


def split(path):
    """The file's code before its first `#[cfg(test)]` line and from that
    line on, without comments or string literals."""
    parts, tail = ([], []), False
    with open(path, encoding="utf-8") as f:
        for line in f:
            tail = tail or line.strip() == "#[cfg(test)]"
            parts[tail].append(COMMENT.sub("", STRING.sub('""', line)))
    return "".join(parts[0]), "".join(parts[1])


def counts(texts):
    """Whole-word counts of every name in `texts`, less the functions of
    that name they declare."""
    words = {}
    for text in texts:
        for w in re.findall(r"\b\w+\b", text):
            words[w] = words.get(w, 0) + 1
        for name in DECL.findall(text):
            words[name] -= 1
    return words


def main():
    os.chdir(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__) + "/..")
    sources, tests = [], []
    for pattern in ["crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs", "benchmark/src/**/*.rs"]:
        sources += sorted(glob.glob(pattern, recursive=True))
    for pattern in ["tests/**/*.rs", "crates/*/tests/**/*.rs", "crates/*/benches/**/*.rs", "benchmark/tests/**/*.rs"]:
        tests += sorted(glob.glob(pattern, recursive=True))
    code = {path: split(path) for path in sources}
    words = counts(text for text, _ in code.values())
    test_words = counts([tail for _, tail in code.values()] + ["".join(split(path)) for path in tests])
    rows = []
    for path, (text, _) in code.items():
        if not path.startswith("crates/"):
            continue
        crate = path.split("/")[1]
        for name in pub_fns(text):
            rows.append((words.get(name, 0), test_words.get(name, 0), crate, path, name))
    for uses, test_uses, crate, path, name in sorted(rows):
        print(f"{uses:5d} {test_uses:5d}  {crate:15s} {path:48s} {name}")


if __name__ == "__main__":
    main()
