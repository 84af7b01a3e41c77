#!/usr/bin/env bash
# Non-test / test line counts per crate — the table a simplicity PR
# reports its size with.
#
#   scripts/loc.sh          counts of the working tree
#   scripts/loc.sh REV      counts at REV beside them, and the difference
#
# A line is "test" when it sits in a file under a tests/ or benches/
# directory, or at or after the file's first line that is exactly
# `#[cfg(test)]` (surrounding whitespace aside; a comment quoting the
# attribute does not count); everything else in a *.rs file under
# crates/ is "non-test". Blank lines and comments count: the measure is
# what a reader has to scroll past.
set -euo pipefail
cd "$(dirname "$0")/.."

# count_tree ROOT -> "crate non_test test" per crate, for the crates/
# directory under ROOT.
count_tree() {
  local root=$1
  ( cd "$root" && find crates -name '*.rs' -print0 | sort -z | xargs -0 awk '
      FNR == 1 {
        crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
        seen[crate] = 1
        all_test = FILENAME ~ /\/(tests|benches)\//
        in_test = 0
      }
      /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { in_test = 1 }
      { if (all_test || in_test) test[crate]++; else code[crate]++ }
      END { for (c in seen) printf "%s %d %d\n", c, code[c], test[c] }
    ' | sort )
}

now=$(count_tree .)
if [[ $# -eq 0 ]]; then
  printf '%-16s %9s %9s\n' crate non-test test
  echo "$now" | awk '{ printf "%-16s %9d %9d\n", $1, $2, $3; c += $2; t += $3 }
    END { printf "%-16s %9d %9d\n", "total", c, t }'
  exit 0
fi

rev=$1
old_root=$(mktemp -d)
trap 'rm -rf "$old_root"' EXIT
git archive "$rev" crates | tar -x -C "$old_root"
old=$(count_tree "$old_root")
printf '%-16s %9s %9s %7s   %9s %9s %7s\n' crate "non-test@" non-test diff "test@" test diff
join -a1 -a2 -e 0 -o 0,1.2,2.2,1.3,2.3 <(echo "$old") <(echo "$now") | awk '
  { printf "%-16s %9d %9d %+7d   %9d %9d %+7d\n", $1, $2, $3, $3 - $2, $4, $5, $5 - $4
    a += $2; b += $3; c += $4; d += $5 }
  END { printf "%-16s %9d %9d %+7d   %9d %9d %+7d\n", "total", a, b, b - a, c, d, d - c }'
