#!/usr/bin/env bash
# End-to-end smoke test of the tix_cli front end: load and index two
# small documents, then run a scored query serially and with two
# partitions (outputs must be byte-identical), a boolean path query
# with a known result count, and `verify`. A retired command must fail
# with the usage exit code 2.
#
#   tests/cli_smoke.sh path/to/tix_cli
set -euo pipefail
CLI="$1"
D=$(mktemp -d)
trap 'rm -rf "$D"' EXIT
fail() {
  echo "cli_smoke: $*" >&2
  exit 1
}

mkdir "$D/docs"
cat > "$D/docs/a1.xml" <<'EOF'
<article><title>search engine design</title>
<bdy><sec><p>the search engine indexes the internet</p></sec>
<sec><p>information retrieval on the internet needs a good search engine</p></sec></bdy>
</article>
EOF
cat > "$D/docs/a2.xml" <<'EOF'
<article><abs><p>an abstract paragraph about the internet</p></abs>
<sec><p>search engine one</p><p>search engine two</p><p>internet three</p></sec>
</article>
EOF
"$CLI" load --db="$D/db" "$D/docs/a1.xml" "$D/docs/a2.xml" > /dev/null
"$CLI" index --db="$D/db" > /dev/null

SCORED='FOR $a IN document("*")//article//* SCORE $a USING foo({"search engine"}, {"internet"}) RETURN $a'
"$CLI" query --db="$D/db" "$SCORED" > "$D/serial.out"
"$CLI" query --db="$D/db" --threads=2 "$SCORED" > "$D/parallel.out"
cmp "$D/serial.out" "$D/parallel.out" || fail "--threads=2 output differs"
grep -q '^[1-9][0-9]* results ' "$D/serial.out" || fail "scored query empty"

# Five paragraphs sit in a sec under an article; the abstract's does not.
BOOLEAN='FOR $p IN document("*")//article//sec/p RETURN $p'
"$CLI" query --db="$D/db" "$BOOLEAN" > "$D/boolean.out"
head -n 1 "$D/boolean.out" | grep -q '^5 results ' ||
  fail "boolean query: $(head -n 1 "$D/boolean.out")"

"$CLI" verify --db="$D/db" > /dev/null || fail "verify failed"

status=0
"$CLI" path --db="$D/db" 'article//sec/p' > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || fail "path exited ${status}, want 2"
echo "cli_smoke: ok"
