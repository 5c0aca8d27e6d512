#!/bin/sh
# The export census: every [val] declared in lib/*/*.mli that no source
# under lib/, bin/, examples/ or perfbench/ names as a whole word (as
# [grep -w] matches), apart from the value's own .ml and .mli.  Such a
# value is exported for the tests alone.
#
# A second pass catches what the word pass misses when a value's name is
# also an ordinary word elsewhere ([Topology.create], [Rng.bool]): it counts
# only qualified uses [M.name] of a value of module [M], outside comments
# and string literals.  A path counts for every module it names
# ([Abe_net.Topology.create]) and for the module behind every alias it
# names ([module Net = Network.Make (P)], then [Net.create]); a file that
# opens [M] ([open], [let open], [M.( )]) uses every name it contains.
# Values declared inside a [module type], or inside a functor argument's
# inline signature ([module Make (P : sig ... end)]), are requirements on a
# functor's argument, not exports, and are left out.  It prints the values the first
# pass did not, marked [(qualified)].
#
# Usage: census.sh [ROOT]   (ROOT defaults to the current directory)
set -e
cd "${1:-.}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
find -L lib bin examples perfbench \
  \( -name _build -o -name .bench_build \) -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -type f -print | sort > "$tmp/sources"
while read -r f; do
  tr -cs 'A-Za-z0-9_' '\n' < "$f" | sort -u | sed "s|^|$f |"
done < "$tmp/sources" > "$tmp/words"
for mli in lib/*/*.mli; do
  sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u |
    sed "s|^|$mli |"
done > "$tmp/vals"
awk 'NR == FNR { users[$2] = users[$2] " " $1; next }
     { own_ml = substr($1, 1, length($1) - 1)
       n = split(users[$2], files, " "); used = 0
       for (i = 1; i <= n; i++)
         if (files[i] != $1 && files[i] != own_ml) used = 1
       if (!used) print $1, $2 }' "$tmp/words" "$tmp/vals" | tee "$tmp/pass1"

# [strip FILE] prints FILE on one line with comments (nested) and string
# literals blanked.
strip() {
  awk -v q="'\"'" 'BEGIN { depth = 0; instr = 0 }
    { line = $0; i = 1; len = length(line)
      while (i <= len) {
        c = substr(line, i, 1); two = substr(line, i, 2)
        if (instr) { if (c == "\\") i++; else if (c == "\"") instr = 0 }
        else if (two == "(*") { depth++; i++ }
        else if (depth > 0 && two == "*)") { depth--; i++ }
        else if (depth == 0) {
          if (substr(line, i, 3) == q) i += 2
          else if (c == "\"") instr = 1
          else printf "%s", c }
        i++ }
      printf " " }' "$1"
}

# Qualified uses, one "FILE MODULE NAME" line each.
while read -r f; do
  strip "$f" | awk -v f="$f" '{
    s = $0
    while (match(s, /module +[A-Z][A-Za-z0-9_]* *= *[A-Z][A-Za-z0-9_.]*/)) {
      m = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
      sub(/^module +/, "", m); x = m; sub(/ *=.*/, "", x); sub(/^[^=]*= */, "", m)
      alias[x] = alias[x] "." m }
    s = $0
    while (match(s, /(open!? +|[A-Z][A-Za-z0-9_]*\.\()[A-Z][A-Za-z0-9_.]*/)) {
      m = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
      sub(/^open!? +/, "", m); gsub(/\(/, "", m); opened = opened "." m }
    s = $0
    while (match(s, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_]*/)) {
      p = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
      k = split(p, seg, ".")
      for (j = 1; j < k; j++) {
        print f, seg[j], seg[k]
        if (seg[j] in alias) {
          na = split(alias[seg[j]], ts, ".")
          for (a = 1; a <= na; a++) if (ts[a] != "") print f, ts[a], seg[k] } } }
    if (opened != "") {
      no = split(opened, ms, "."); nw = split($0, ws, /[^A-Za-z0-9_]+/)
      for (a = 1; a <= no; a++)
        if (ms[a] != "") for (w = 1; w <= nw; w++) print f, ms[a], ws[w] } }'
done < "$tmp/sources" | sort -u > "$tmp/qualified"

# Exported values, without those inside a [module type] or a functor
# argument's signature (rewritten to a [module type] first).
for mli in lib/*/*.mli; do
  strip "$mli" | awk -v mli="$mli" '{
    gsub(/\( *[A-Z][A-Za-z0-9_]* *: *sig/, "( module type sig")
    n = split($0, tok, /[^A-Za-z0-9_]+/); depth = 0; in_type = 0
    for (i = 1; i <= n; i++) {
      t = tok[i]
      if (t == "type" && tok[i - 1] == "module") pending = 1
      else if (t == "sig" || t == "struct" || t == "object" || t == "begin") {
        depth++; if (pending && !in_type) in_type = depth; pending = 0 }
      else if (t == "end") { if (depth == in_type) in_type = 0; depth-- }
      else if (t == "val" && !in_type && tok[i + 1] ~ /^[a-z_]/) print mli, tok[i + 1] } }'
done | sort -u > "$tmp/exported"

awk 'FILENAME == ARGV[1] { users[$2 "." $3] = users[$2 "." $3] " " $1; next }
     FILENAME == ARGV[2] { seen[$1 " " $2] = 1; next }
     !(($1 " " $2) in seen) {
       own_ml = substr($1, 1, length($1) - 1)
       base = $1; sub(/.*\//, "", base); sub(/\.mli$/, "", base)
       mod = toupper(substr(base, 1, 1)) substr(base, 2)
       n = split(users[mod "." $2], files, " "); used = 0
       for (i = 1; i <= n; i++)
         if (files[i] != $1 && files[i] != own_ml) used = 1
       if (!used) print $1, $2, "(qualified)" }' \
  "$tmp/qualified" "$tmp/pass1" "$tmp/exported"
