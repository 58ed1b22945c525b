#!/usr/bin/env bash
# End-to-end smoke test for the dctd service binary (ctest runs it as
# dctd.smoke; CI also runs it on the TSan build):
#
#   tools/smoke_dctd.sh [path-to-dctd]
#
# Drives one dctd process over a JSONL script that covers the full
# response taxonomy — ok, cache hit, fault isolation (crash + unknown
# app), deadline-exceeded, malformed JSON and field values — then asserts
# on the response lines and the metrics dump shape. Exits non-zero on the
# first unmet expectation.
set -euo pipefail

DCTD="${1:-build/tools/dctd}"
[ -x "$DCTD" ] || { echo "dctd binary not found at $DCTD" >&2; exit 1; }

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
out="$workdir/out.jsonl"
metrics="$workdir/metrics.txt"

# 4 workers, mixed workload: healthy requests interleaved with crashing,
# malformed, unknown-app and already-expired-deadline requests. The drain
# after the first request makes hit1/hit2 deterministic cache HITS
# (without it they could join the first compile in flight instead).
DCT_SERVICE_WORKERS=4 DCT_SERVICE_CACHE_CAP=8 "$DCTD" >"$out" 2>"$metrics" <<'EOF'
{"id":"warm","app":"lu","size":48,"procs":4}
{"cmd":"drain"}
{"id":"hit1","app":"lu","size":48,"procs":4}
{"id":"hit2","app":"lu","size":48,"procs":4}
{"id":"crash","app":"crash"}
{"id":"unknown","app":"nosuch"}
{"id":"badfield","app":"lu","procs":"many"}
not even json
{"id":"infdeadline","app":"lu","size":48,"procs":4,"deadline_ms":"inf"}
{"id":"deadline","app":"adi","size":48,"procs":4,"deadline_ms":0.0001}
{"id":"native","app":"stencil5","size":32,"procs":2,"engine":"native"}
{"id":"compile","app":"vpenta","size":24,"procs":4,"engine":"compile"}
{"id":"hpf","app":"adi","size":32,"procs":2,"hpf":"!HPF$ DISTRIBUTE X(*, BLOCK)"}
{"cmd":"metrics"}
{"cmd":"shutdown"}
EOF

fail() { echo "FAIL: $1" >&2; echo "--- responses ---" >&2; cat "$out" >&2; \
         echo "--- metrics ---" >&2; cat "$metrics" >&2; exit 1; }

# One response line per request line: 9 served + 3 rejected at parse time
# (the rejected ones carry synthesized line-numbered ids).
[ "$(wc -l <"$out")" -eq 12 ] || fail "expected 12 response lines"

expect() { # expect <id> <pattern>
  grep -F "\"id\":\"$1\"" "$out" | grep -qF "$2" \
    || fail "response $1 missing $2"
}

expect warm     '"ok":true'
expect hit1     '"cache_hit":true'
expect hit2     '"cache_hit":true'
expect crash    '"error_code":"fault"'
expect unknown  '"error_code":"invalid-argument"'
expect line-7   '"error_code":"invalid-argument"'   # non-integer procs
expect line-8   '"error_code":"invalid-argument"'   # not JSON at all
expect line-9   '"error_code":"invalid-argument"'   # non-finite deadline
expect deadline '"error_code":"deadline-exceeded"'
expect native   '"ok":true'
expect native   '"seconds":'
expect compile  '"ok":true'
expect hpf      '"ok":true'

# Healthy requests must not be dropped by their faulty neighbours.
[ "$(grep -cF '"ok":true' "$out")" -eq 6 ] || fail "expected 6 ok responses"

# The cached artifact serves bit-identical results: warm + both hits
# report the same values fingerprint.
vals="$(grep -F '"id":"warm"' "$out" | grep -o '"values":"[0-9a-f]*"')"
[ -n "$vals" ] || fail "warm response missing a values fingerprint"
[ "$(grep -cF "$vals" "$out")" -eq 3 ] \
  || fail "cache hits must return bit-identical values"

# Metrics shape: counters and latency quantiles for every stage.
for needle in \
    'dctd_requests_total 12' \
    'dctd_requests_completed 9' \
    'dctd_requests_ok 6' \
    'dctd_requests_error 3' \
    'dctd_requests_rejected 3' \
    'dctd_requests_error_code{code="invalid-argument"} 1' \
    'dctd_requests_error_code{code="fault"} 1' \
    'dctd_requests_error_code{code="deadline-exceeded"} 1' \
    'dctd_cache_hits 2' \
    'dctd_cache_capacity 8' \
    'dctd_queue_depth 0' \
    'dctd_latency_ms{stage="queue",quantile="p50"}' \
    'dctd_latency_ms{stage="key",quantile="p50"}' \
    'dctd_latency_ms{stage="compile",quantile="p95"}' \
    'dctd_latency_ms{stage="spot_check",quantile="mean"}' \
    'dctd_latency_ms{stage="exec",quantile="p99"}' \
    'dctd_latency_ms{stage="total",quantile="mean"}'; do
  grep -qF "$needle" "$metrics" || fail "metrics missing: $needle"
done

# Bad configuration: a DCT_SERVICE_* value that is not a whole integer in
# range exits 2 with one stderr line, before any request is served.
for setting in DCT_SERVICE_QUEUE_CAP=-1 DCT_SERVICE_CACHE_CAP=-1 \
               DCT_SERVICE_WORKERS=0 DCT_SERVICE_WORKERS=4x \
               DCT_SERVICE_DEADLINE_MS=-5 DCT_SERVICE_QUEUE_CAP=99999999999; do
  status=0
  env "$setting" "$DCTD" >"$out" 2>"$metrics" \
    <<<'{"id":"x","app":"lu","size":16,"procs":2}' || status=$?
  [ "$status" -eq 2 ] || fail "$setting: expected exit status 2, got $status"
  [ ! -s "$out" ] || fail "$setting: dctd served a request"
  [ "$(wc -l <"$metrics")" -eq 1 ] || fail "$setting: expected one stderr line"
  grep -qF "${setting%%=*}" "$metrics" || fail "$setting: stderr must name it"
done

echo "dctd smoke: all checks passed"
