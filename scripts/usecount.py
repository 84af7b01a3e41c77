#!/usr/bin/env python3
"""Count the non-test uses of every `pub fn` in the workspace's crates.

    python3 scripts/usecount.py [REPO]

Lists each `pub fn` (any visibility that starts with `pub`) declared in
the non-test code of `crates/*/src` and not behind a `#[cfg(...)]` that
requires `test` (such as `#[cfg(all(test, not(cmpi_model)))]`), with the
number of times its name appears in the non-test code of `crates/*/src`,
`src/`, `examples/` and `benchmark/src` other than where a function of
that name is declared, fewest first: uses, crate, file, name. Non-test
code is a file's lines before its first line that is exactly
`#[cfg(test)]` (as `scripts/loc.sh` counts); comments and string
literals are left out of the count.

A use is any mention of the name as a whole word: a call, a method call,
a path (`Type::name`) or a function passed by name. A zero is a function
nothing but tests mentions. A non-zero count for a name that other items
share (`new`, `get`, `len`, a field of the same name) can be someone
else's: look before trusting it.
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


def non_test(path):
    """The file's code before its first `#[cfg(test)]` line, without
    comments or string literals."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == "#[cfg(test)]":
                break
            out.append(COMMENT.sub("", STRING.sub('""', line)))
    return "".join(out)


def main():
    os.chdir(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__) + "/..")
    sources = []
    for pattern in ["crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs", "benchmark/src/**/*.rs"]:
        sources += sorted(glob.glob(pattern, recursive=True))
    code = {path: non_test(path) for path in sources}
    words, decls = {}, {}
    for text in code.values():
        for w in re.findall(r"\b\w+\b", text):
            words[w] = words.get(w, 0) + 1
        for name in DECL.findall(text):
            decls[name] = decls.get(name, 0) + 1
    rows = []
    for path, text in code.items():
        if not path.startswith("crates/"):
            continue
        crate = path.split("/")[1]
        for name in pub_fns(text):
            rows.append((words.get(name, 0) - decls.get(name, 0), crate, path, name))
    for uses, crate, path, name in sorted(rows):
        print(f"{uses:5d}  {crate:15s} {path:48s} {name}")


if __name__ == "__main__":
    main()
