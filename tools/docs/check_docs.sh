#!/usr/bin/env bash
# Docs invariants, run as a ctest and by the CI docs job:
#   1. Every relative (intra-repo) markdown link resolves to a file or
#      directory — a rename that orphans a link fails the build.
#   2. Every metric name registered in the source tree appears in
#      docs/observability.md, so the documented roster cannot drift
#      behind the code (lint rule UIC-L011 guarantees names are literal
#      strings at UIC_METRIC_* sites, which is what makes this
#      greppable).
#   3. Every solver name in the solver table (src/solver/registry.cc)
#      appears in PAPER.md's "§6 algorithm roster ↔ solver registry
#      names" table. The names are string literals opening the table's
#      rows, which is what makes this greppable.
#   4. Every verb name in the verb table (src/serve/server.cc) appears
#      in docs/serving.md's "Verbs" table. Each row names its verb as
#      the first argument of UIC_VERB, a string literal.
#   5. Every row of the field tables (src/exp/fields.cc) has its JSON key
#      in docs/serving.md's "Verbs" table and its flag in uic_run's usage
#      text (examples/uic_run.cpp). Each row names its flag and key as
#      the first two arguments of UIC_FIELD, string literals.
#   6. Every row of the figure table (kFigures in bench/bench_figures.cc)
#      appears in PAPER.md's figure map ("§6 figures and tables ↔
#      `bench_figures --figure` names"). Each row opens with its --figure
#      name, a string literal.
set -u
root="${1:-.}"
fail=0

# --- intra-repo links ---------------------------------------------------
while IFS= read -r file; do
  dir=$(dirname "$file")
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "broken link in $file: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$file" | sed 's/^](//; s/)$//')
done < <(find "$root" -name '*.md' \
  -not -path '*/build*/*' -not -path '*/.git/*' -not -path '*/related/*')

# --- metric roster coverage ---------------------------------------------
doc="$root/docs/observability.md"
if [ ! -f "$doc" ]; then
  echo "missing $doc"
  exit 1
fi
while IFS= read -r name; do
  if ! grep -q "$name" "$doc"; then
    echo "metric $name is registered in the tree but missing from $doc"
    fail=1
  fi
done < <(grep -rhoE '"uic_[a-z0-9_]+(_total|_ms|_depth|_running)"' \
  "$root/src" "$root/examples" | tr -d '"' | sort -u)

# --- solver roster coverage ---------------------------------------------
paper="$root/PAPER.md"
roster=$(sed -n '/^### §6 algorithm roster ↔ solver registry names/,/^#/p' \
  "$paper" 2>/dev/null)
solvers=$(grep -oE '^ *\{"[^"]+",' "$root/src/solver/registry.cc" |
  sed -E 's/^ *\{"//; s/",$//')
if [ -z "$solvers" ]; then
  echo "no solver names found in the table in src/solver/registry.cc"
  fail=1
fi
for name in $solvers; do
  if ! grep -qF "| \`$name\` |" <<<"$roster"; then
    echo "solver $name is in the solver table but missing from the roster in $paper"
    fail=1
  fi
done

# --- verb roster coverage -----------------------------------------------
serving="$root/docs/serving.md"
verb_table=$(sed -n '/^### Verbs/,/^#/p' "$serving" 2>/dev/null)
verbs=$(grep -oE 'UIC_VERB\("[^"]+"' "$root/src/serve/server.cc" |
  sed -E 's/^UIC_VERB\("//; s/"$//')
if [ -z "$verbs" ]; then
  echo "no verb names found in the table in src/serve/server.cc"
  fail=1
fi
for name in $verbs; do
  if ! grep -qF "| \`$name\` |" <<<"$verb_table"; then
    echo "verb $name is in src/serve/server.cc but missing from the verb table in $serving"
    fail=1
  fi
done

# --- field table coverage -------------------------------------------------
usage=$(sed -n '/kUsage =/,/;$/p' "$root/examples/uic_run.cpp")
rows=$(grep -oE 'UIC_FIELD\("[^"]+", "[^"]+"' "$root/src/exp/fields.cc" |
  sed -E 's/^UIC_FIELD\("//; s/", "/ /; s/"$//')
if [ -z "$rows" ]; then
  echo "no rows found in the field tables in src/exp/fields.cc"
  fail=1
fi
while read -r flag key; do
  [ -z "$flag" ] && continue
  if ! grep '^|' <<<"$verb_table" | grep -qF "\`$key\`"; then
    echo "field key $key is in src/exp/fields.cc but missing from the verb table in $serving"
    fail=1
  fi
  if ! grep -qF -- "--$flag " <<<"$usage"; then
    echo "field flag --$flag is in src/exp/fields.cc but missing from uic_run's usage text"
    fail=1
  fi
done <<<"$rows"

# --- figure roster coverage ---------------------------------------------
figure_map=$(sed -n '/^### §6 figures and tables ↔/,/^#/p' "$paper" 2>/dev/null)
figures=$(sed -n '/^constexpr Figure kFigures/,/^};/p' \
  "$root/bench/bench_figures.cc" | grep -oE '^ *\{"[^"]+",' |
  sed -E 's/^ *\{"//; s/",$//')
if [ -z "$figures" ]; then
  echo "no figure names found in the table in bench/bench_figures.cc"
  fail=1
fi
for name in $figures; do
  if ! grep -qF "| \`$name\` |" <<<"$figure_map"; then
    echo "figure $name is in bench/bench_figures.cc but missing from the figure map in $paper"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs clean: links resolve, metric, solver, verb, field and figure rosters covered"
fi
exit "$fail"
