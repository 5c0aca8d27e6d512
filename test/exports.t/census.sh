#!/bin/sh
# The export census: every [val] declared in lib/*/*.mli that no source
# under lib/, bin/, bench/, examples/ or perfbench/ names as a whole word
# (as [grep -w] matches), apart from the value's own .ml and .mli.  Such a
# value is exported for the tests alone.
#
# Usage: census.sh [ROOT]   (ROOT defaults to the current directory)
set -e
cd "${1:-.}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
find -L lib bin bench examples perfbench \
  \( -name _build -o -name .bench_build \) -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -type f -print | sort |
  while read -r f; do
    tr -cs 'A-Za-z0-9_' '\n' < "$f" | sort -u | sed "s|^|$f |"
  done > "$tmp/words"
for mli in lib/*/*.mli; do
  sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u |
    sed "s|^|$mli |"
done > "$tmp/vals"
awk 'NR == FNR { users[$2] = users[$2] " " $1; next }
     { own_ml = substr($1, 1, length($1) - 1)
       n = split(users[$2], files, " "); used = 0
       for (i = 1; i <= n; i++)
         if (files[i] != $1 && files[i] != own_ml) used = 1
       if (!used) print $1, $2 }' "$tmp/words" "$tmp/vals"
