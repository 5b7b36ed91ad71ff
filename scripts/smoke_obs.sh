#!/bin/sh
# smoke-obs: end-to-end check of the fairness observatory (make smoke-obs).
#
# Exercises the windowed Jain/convergence layer through every surface it
# ships in:
#
#   1. tcpfair -fairness on a homogeneous CUBIC dumbbell prints a finite
#      convergence time and zero starvation episodes;
#   2. the paper's central unfairness case — BBRv1 vs CUBIC in a deep
#      (4xBDP) FIFO — reports exactly one starvation episode with the CUBIC
#      flow as victim and the BBR flow as culprit;
#   3. tcpfair with the interval report on and -fairness prints the same
#      event count and Jain index as sweep for the same config: observers
#      never change a result;
#   4. a fairness-armed sweep served by sweepd is byte-identical on
#      /v1/sweeps/{id}/fairness to the NDJSON `sweep -fairness-out` writes
#      locally for the same grid, and the armed results themselves stay
#      byte-identical science (modulo wall_ns) to a plain run;
#   5. cmd/report renders the fairness-dynamics table from the armed result
#      set, and the daemon /metrics exposes the convergence histogram and
#      the build_info gauge;
#   6. cmd/timeline renders a jain(t) sparkline from recorded telemetry.
#
# Nonzero exit on any mismatch.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "smoke-obs: FAIL: $*" >&2
    [ -f "$tmp/sweepd.log" ] && sed 's/^/smoke-obs: sweepd: /' "$tmp/sweepd.log" >&2
    exit 1
}

echo "smoke-obs: building tcpfair, sweep, sweepd, report and timeline" >&2
$GO build -o "$tmp/tcpfair" ./cmd/tcpfair
$GO build -o "$tmp/sweep" ./cmd/sweep
$GO build -o "$tmp/sweepd" ./cmd/sweepd
$GO build -o "$tmp/report" ./cmd/report
$GO build -o "$tmp/timeline" ./cmd/timeline

echo "smoke-obs: homogeneous CUBIC pair converges" >&2
"$tmp/tcpfair" -bw 100Mbps -queue 2 -cca1 cubic -cca2 cubic -duration 5s \
    -fairness -quiet >"$tmp/cubic.txt"
grep -q 'fairness observatory' "$tmp/cubic.txt" ||
    fail "tcpfair -fairness printed no observatory block"
grep -q 'converged at  never' "$tmp/cubic.txt" &&
    fail "homogeneous CUBIC pair never converged"
grep -q 'converged at' "$tmp/cubic.txt" ||
    fail "no convergence line in the observatory block"
grep -q 'episodes: 0' "$tmp/cubic.txt" ||
    fail "homogeneous CUBIC pair reported starvation episodes"

echo "smoke-obs: BBRv1 starves CUBIC in a 4xBDP FIFO" >&2
"$tmp/tcpfair" -bw 100Mbps -queue 4 -cca1 bbr1 -cca2 cubic -duration 10s \
    -fairness -quiet >"$tmp/bbr.txt"
grep -q 'episodes: 1' "$tmp/bbr.txt" ||
    fail "deep-FIFO BBR-vs-CUBIC did not report exactly one starvation episode"
grep -q 'flow 2 (cubic) starved .* culprits \[1\]' "$tmp/bbr.txt" ||
    fail "episode line missing the cubic victim or the bbr1 culprit"

echo "smoke-obs: tcpfair with observers agrees with sweep on events and Jain" >&2
"$tmp/tcpfair" -bw 100Mbps -queue 2 -aqm fifo -cca1 bbr1 -cca2 cubic -duration 3s \
    -seed 1 -fairness >"$tmp/cli.txt"
grep -q '^\[   1.00s\] sender1(bbr1 ' "$tmp/cli.txt" ||
    fail "tcpfair printed no interval report"
"$tmp/sweep" -bws 100Mbps -queues 2 -aqms fifo -pairings bbr1:cubic -duration 3s \
    -seeds 1 -quiet -strict -out "$tmp/one.json" >/dev/null
cli_events=$(sed -n 's/^events  *\([0-9]*\) in .*/\1/p' "$tmp/cli.txt")
cli_jain=$(sed -n 's/^Jain index  *\([0-9.]*\)$/\1/p' "$tmp/cli.txt")
sweep_events=$(sed -n 's/^ *"events": \([0-9]*\),$/\1/p' "$tmp/one.json")
sweep_jain=$(printf '%.4f' "$(sed -n 's/^ *"jain": \([0-9.eE+-]*\),$/\1/p' "$tmp/one.json")")
[ -n "$cli_events" ] && [ "$cli_events" = "$sweep_events" ] ||
    fail "events differ: tcpfair $cli_events, sweep $sweep_events"
[ -n "$cli_jain" ] && [ "$cli_jain" = "$sweep_jain" ] ||
    fail "Jain index differs: tcpfair $cli_jain, sweep $sweep_jain"

SPEC="-bws 50Mbps -queues 2,4 -aqms fifo -pairings bbr1:cubic -duration 2s"

echo "smoke-obs: local fairness NDJSON via sweep -fairness-out" >&2
"$tmp/sweep" $SPEC -quiet -strict -fairness-out "$tmp/direct.ndjson" \
    -out "$tmp/armed.json" >/dev/null
lines=$(wc -l <"$tmp/direct.ndjson")
[ "$lines" = "2" ] || fail "expected 2 fairness report lines, got $lines"
grep -q '"jain"' "$tmp/direct.ndjson" || fail "fairness NDJSON carries no Jain series"

echo "smoke-obs: armed results are byte-identical science to a plain sweep" >&2
"$tmp/sweep" $SPEC -quiet -strict -out "$tmp/plain.json" >/dev/null
grep -v '"wall_ns"' "$tmp/plain.json" >"$tmp/plain.norm"
# Drop the additive fairness block (brace-matched, it is nested) and the
# wall-clock field; everything left must match the plain run byte for byte.
awk '/"fairness": \{/ { skip = 1; depth = 0 }
     skip { depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth == 0) skip = 0; next }
     { print }' "$tmp/armed.json" | grep -v '"wall_ns"' >"$tmp/armed.norm"
cmp -s "$tmp/plain.norm" "$tmp/armed.norm" || {
    diff "$tmp/plain.norm" "$tmp/armed.norm" | head -40 >&2
    fail "arming the observatory changed the science bytes"
}

echo "smoke-obs: served fairness stream via sweepd -fairness" >&2
"$tmp/sweepd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -journal "$tmp/journal.ckpt.jsonl" -fairness 2>"$tmp/sweepd.log" &
pid=$!
i=0
while [ ! -f "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not come up"
    sleep 0.1
done
base="http://$(cat "$tmp/addr")"
job=$("$tmp/sweep" $SPEC -quiet -strict -remote "$base" -out "$tmp/served.json" 2>&1 >/dev/null \
    | sed -n 's/.*remote job \([a-zA-Z0-9_-]*\) on.*/\1/p' | head -1)
[ -n "$job" ] || fail "could not extract the job id from sweep -remote output"

curl -sf "$base/v1/sweeps/$job/fairness" >"$tmp/served.ndjson" ||
    fail "daemon /fairness endpoint failed"
cmp -s "$tmp/direct.ndjson" "$tmp/served.ndjson" || {
    diff "$tmp/direct.ndjson" "$tmp/served.ndjson" | head -40 >&2
    fail "served fairness stream differs from the local -fairness-out file"
}

echo "smoke-obs: convergence histogram and build_info on /metrics" >&2
curl -sf "$base/metrics" >"$tmp/metrics.txt" || fail "daemon /metrics failed"
grep -q '^sweepd_build_info{version=' "$tmp/metrics.txt" ||
    fail "/metrics missing the build_info gauge"
grep -q '^# TYPE sweepd_fairness_convergence_seconds histogram' "$tmp/metrics.txt" ||
    fail "/metrics missing the convergence-time histogram"
grep -q '^sweepd_fairness_episodes_total' "$tmp/metrics.txt" ||
    fail "/metrics missing the episode counter"

echo "smoke-obs: fairness dynamics table via cmd/report" >&2
"$tmp/report" -in "$tmp/armed.json" -figures=false -out "$tmp/report.md" 2>/dev/null
grep -q '^## Fairness dynamics' "$tmp/report.md" ||
    fail "cmd/report rendered no fairness-dynamics section"
grep -q 'BBR1 vs CUBIC' "$tmp/report.md" ||
    fail "fairness table missing the swept pairing"

echo "smoke-obs: jain(t) sparkline via cmd/timeline" >&2
"$tmp/tcpfair" -bw 100Mbps -queue 2 -cca1 cubic -cca2 cubic -duration 3s \
    -telemetry-out "$tmp/run.ndjson" -quiet >/dev/null
"$tmp/timeline" -in "$tmp/run.ndjson" >"$tmp/timeline.txt"
grep -q 'jain(t)' "$tmp/timeline.txt" ||
    fail "cmd/timeline rendered no jain(t) sparkline"

echo "smoke-obs: OK (convergence + starvation scenarios, CLI = sweep events and Jain, served = local fairness stream, science bytes unchanged, report/metrics/timeline rendered)" >&2
