#!/usr/bin/env bash
# Smoke test for the grainserved artifact server: build everything, record a
# real fixture artifact, start a server, upload the fixture, and verify every
# endpoint serves bytes identical to the grainview CLI's output for the same
# artifact; then the same for the committed older v2 golden artifact, which
# carries a level-index sidecar. Finishes with the benchmark's serve workload at smoke size, a
# closed-loop run against its own server that evicts every warm tier before
# the cold session and verifies every served body.
#
# Usage: scripts/server_smoke.sh   (from the repo root)
set -euo pipefail

tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmp/grainview" ./cmd/grainview
go build -o "$tmp/grainserved" ./cmd/grainserved
go build -o "$tmp/grainbench" ./cmd/grainbench

echo "== record fixture artifact"
fixture="$tmp/fixture.ggp"
"$tmp/grainview" -workload fib -record "$fixture" -summary >/dev/null 2>&1

echo "== reference renderings via grainview"
"$tmp/grainview" -summary "$fixture" >"$tmp/summary.cli"
"$tmp/grainview" -highlight "$fixture" >"$tmp/highlight.cli"
# With -o, the what-if table goes to stdout while the export goes to the file.
"$tmp/grainview" -whatif rank -o "$tmp/ignored.dot" "$fixture" >"$tmp/whatif.cli" 2>/dev/null
"$tmp/grainview" -window depth=2,top=8 -format dot "$fixture" >"$tmp/window.cli" 2>/dev/null
query='from grains | filter exec > 0 | groupby loc | agg count, sum(exec), mean(benefit) | sort sum_exec desc | topk 5'
"$tmp/grainview" -query "$query" "$fixture" >"$tmp/query.cli"
# -stats prints the stats block before the summary. The server's stats view
# is the block alone, so the diff loop below compares this output with the
# server's stats followed by the server's summary.
"$tmp/grainview" -stats -summary "$fixture" >"$tmp/stats-summary.cli"
"$tmp/grainview" -summary -trace "$tmp/trace.cli" "$fixture" >/dev/null 2>&1

echo "== columnar v2: convert and diff against v1 analysis"
"$tmp/grainbench" -ggpconv "$fixture" -ggpconv-out "$tmp/fixture.v2.ggp" 2>/dev/null
v2diff() {
    local label=$1; shift
    "$tmp/grainview" "$@" "$fixture" >"$tmp/v1.out" 2>/dev/null
    "$tmp/grainview" "$@" "$tmp/fixture.v2.ggp" >"$tmp/v2.out" 2>/dev/null
    if ! diff -q "$tmp/v1.out" "$tmp/v2.out" >/dev/null; then
        echo "FAIL: v1 vs v2 artifact output differs for: $label" >&2
        diff "$tmp/v1.out" "$tmp/v2.out" | head -20 >&2
        exit 1
    fi
}
v2diff summary -summary
v2diff highlight -highlight
v2diff window -window depth=2,top=8 -format dot
v2diff query -query "$query"
echo "   v1 -> v2 convert: analysis byte-identical"

echo "== Perfetto trace of a saved artifact"
# The scheduler instants are derived from the stored profile, so both
# artifact versions export the same trace, with every instant kind present.
"$tmp/grainview" -summary -trace "$tmp/trace.v2.json" "$tmp/fixture.v2.ggp" >/dev/null 2>&1
cmp -s "$tmp/trace.cli" "$tmp/trace.v2.json" || { echo "FAIL: v1 and v2 artifact traces differ" >&2; exit 1; }
for kind in steal park resume; do
    grep -q "\"name\":\"$kind\"" "$tmp/trace.cli" || { echo "FAIL: artifact trace has no $kind instants" >&2; exit 1; }
done
echo "   -trace on v1 and v2 artifacts: identical, steal/park/resume present"

echo "== runtime stats of a saved artifact"
# The stats report is derived from the stored profile too.
"$tmp/grainview" -stats -summary "$tmp/fixture.v2.ggp" >"$tmp/stats.v2.txt" 2>/dev/null
cmp -s "$tmp/stats-summary.cli" "$tmp/stats.v2.txt" || { echo "FAIL: v1 and v2 artifact stats differ" >&2; exit 1; }
grep -q "^steals " "$tmp/stats-summary.cli" || { echo "FAIL: artifact stats have no steals line" >&2; exit 1; }
echo "   -stats on v1 and v2 artifacts: identical, steals reported"

echo "== start grainserved"
addr=127.0.0.1:18080
"$tmp/grainserved" -listen "$addr" -store "$tmp/store" -debug 2>"$tmp/server.log" &
server_pid=$!
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null

echo "== upload artifact"
id=$(curl -fsS -X POST --data-binary @"$fixture" "http://$addr/artifacts" |
    sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')
[ -n "$id" ] || { echo "upload returned no id" >&2; exit 1; }
echo "   id: $id"

echo "== endpoint bytes vs grainview CLI"
curl -fsS "http://$addr/artifacts/$id/summary" >"$tmp/summary.srv"
curl -fsS "http://$addr/artifacts/$id/highlight" >"$tmp/highlight.srv"
curl -fsS "http://$addr/artifacts/$id/whatif" >"$tmp/whatif.srv"
curl -fsS "http://$addr/artifacts/$id/window?depth=2&top=8&format=dot" >"$tmp/window.srv"
curl -fsS --get --data-urlencode "q=$query" "http://$addr/artifacts/$id/query" >"$tmp/query.srv"
curl -fsS "http://$addr/artifacts/$id/stats" >"$tmp/stats.srv"
cat "$tmp/stats.srv" "$tmp/summary.srv" >"$tmp/stats-summary.srv"
curl -fsS "http://$addr/artifacts/$id/trace" >"$tmp/trace.srv"
for ep in summary highlight whatif window query stats-summary trace; do
    if ! diff -q "$tmp/$ep.cli" "$tmp/$ep.srv" >/dev/null; then
        echo "FAIL: $ep endpoint differs from grainview output:" >&2
        diff "$tmp/$ep.cli" "$tmp/$ep.srv" | head -20 >&2
        exit 1
    fi
    echo "   $ep: byte-identical"
done

echo "== older v2 artifact (level-index sidecar) served like grainview reads it"
# The golden artifact committed before the level index stopped being
# stored: its 0x20 sidecar is verified and skipped by both front ends.
old=internal/ggp/testdata/seed.v2s.ggp
oldid=$(curl -fsS -X POST --data-binary @"$old" "http://$addr/artifacts" |
    sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')
[ -n "$oldid" ] || { echo "upload of $old returned no id" >&2; exit 1; }
"$tmp/grainview" -summary "$old" >"$tmp/old-summary.cli"
"$tmp/grainview" -highlight "$old" >"$tmp/old-highlight.cli"
"$tmp/grainview" -window depth=2,top=8 -format dot "$old" >"$tmp/old-window.cli" 2>/dev/null
"$tmp/grainview" -query "$query" "$old" >"$tmp/old-query.cli"
curl -fsS "http://$addr/artifacts/$oldid/summary" >"$tmp/old-summary.srv"
curl -fsS "http://$addr/artifacts/$oldid/highlight" >"$tmp/old-highlight.srv"
curl -fsS "http://$addr/artifacts/$oldid/window?depth=2&top=8&format=dot" >"$tmp/old-window.srv"
curl -fsS --get --data-urlencode "q=$query" "http://$addr/artifacts/$oldid/query" >"$tmp/old-query.srv"
for ep in summary highlight window query; do
    if ! diff -q "$tmp/old-$ep.cli" "$tmp/old-$ep.srv" >/dev/null; then
        echo "FAIL: $ep of the older v2 artifact differs from grainview output:" >&2
        diff "$tmp/old-$ep.cli" "$tmp/old-$ep.srv" | head -20 >&2
        exit 1
    fi
    echo "   $ep: byte-identical"
done

echo "== malformed query is a structured 400"
code=$(curl -s -o "$tmp/badq.json" -w '%{http_code}' --get --data-urlencode "q=bogus nonsense" "http://$addr/artifacts/$id/query")
[ "$code" = 400 ] || { echo "FAIL: malformed query returned $code, want 400" >&2; exit 1; }
grep -q '"error": *"bad-query"' "$tmp/badq.json" || { echo "FAIL: 400 body not structured: $(cat "$tmp/badq.json")" >&2; exit 1; }
echo "   query 400: structured"

echo "== repeated upload is a memo hit"
second=$(curl -fsS -X POST --data-binary @"$fixture" "http://$addr/artifacts")
echo "$second" | grep -q '"existed": *true' || { echo "FAIL: re-upload not recognized: $second" >&2; exit 1; }

echo "== malformed window parameters are a structured 400"
code=$(curl -s -o "$tmp/badw.json" -w '%{http_code}' "http://$addr/artifacts/$id/window?format=bogus")
[ "$code" = 400 ] || { echo "FAIL: bad window format returned $code, want 400" >&2; exit 1; }
grep -q '"error": *"bad-params"' "$tmp/badw.json" || { echo "FAIL: 400 body not structured: $(cat "$tmp/badw.json")" >&2; exit 1; }
echo "   window 400: structured"

echo "== stored artifact upgraded in place to columnar v2"
stored="$tmp/store/$id.ggp"
ver=$(od -An -j4 -N1 -tu1 "$stored" | tr -d ' ')
[ "$ver" = 2 ] || { echo "FAIL: stored artifact version byte is $ver, want 2" >&2; exit 1; }
echo "   $id.ggp: version 2"

echo "== statsz"
# Through a file: head closing the pipe early fails curl (and, under
# pipefail, the script) once /statsz outgrows one write.
curl -fsS "http://$addr/statsz" -o "$tmp/statsz.json"
head -30 "$tmp/statsz.json"

echo "== benchmark serve workload at smoke size (its own server; cold session after /debug/evict)"
go run ./bench run serve -smoke
echo "server smoke: OK"
