#!/bin/sh
# cluster_smoke.sh — 3-shard sharded-cluster smoke for CI and local runs.
#
# Launches three dlht-server processes, drives
# them with `dlht-loadgen -addrs` (the consistent-hashed Cluster Store)
# request-at-a-time (-pipeline 1) at two connection counts — 4, and the
# many-small-clients regime at 64 — plus pipelined (-pipeline 64), and
# prints one summary line:
#
#	cluster smoke (sync=0.05 M/s sync64=0.11 M/s async=0.22 M/s)
#
# Any loadgen error (transport failure, unexpected status, missing key)
# fails the script, so this doubles as an end-to-end correctness gate for
# the protocol v2 handshake, shard routing, and per-shard completion
# ordering.
#
# It then runs the failover case: three WAL-backed shards, a replicated
# (R=2, W=1) loadgen run, kill -9 of one shard mid-run, restart from the
# same WAL directory — the loadgen must ride through the outage (error
# rate under -max-error-rate, every loaded key readable afterwards, no
# client restart) and a second summary line records the availability:
#
#	failover smoke (availability=99.98% retryable=12 mreqs=0.18)
#
# Usage: scripts/cluster_smoke.sh
set -eu
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
synclog="$bindir/sync.log"
sync64log="$bindir/sync64.log"
asynclog="$bindir/async.log"

go build -o "$bindir/dlht-server" ./cmd/dlht-server
go build -o "$bindir/dlht-loadgen" ./cmd/dlht-loadgen

"$bindir/dlht-server" -addr 127.0.0.1:14141 -bins 262144 >"$bindir/s1.log" 2>&1 &
PIDS=$!
"$bindir/dlht-server" -addr 127.0.0.1:14142 -bins 262144 >"$bindir/s2.log" 2>&1 &
PIDS="$PIDS $!"
"$bindir/dlht-server" -addr 127.0.0.1:14143 -bins 262144 >"$bindir/s3.log" 2>&1 &
PIDS="$PIDS $!"
cleanup() {
	# shellcheck disable=SC2086 # PIDS is a space-separated pid list
	kill -9 $PIDS 2>/dev/null || true
	rm -rf "$bindir"
}
trap cleanup EXIT
sleep 1

addrs=127.0.0.1:14141,127.0.0.1:14142,127.0.0.1:14143

# Output goes to a file first, then cat — a pipe into tee would replace
# the loadgen's exit status with tee's under POSIX sh (no pipefail), and
# the loadgen's non-zero exit on any error is this gate's whole point.
"$bindir/dlht-loadgen" -addrs "$addrs" -conns 4 -pipeline 1 \
	-ops 200000 -keys 100000 -read-pct 50 >"$synclog" 2>&1 || {
	status=$?
	cat "$synclog"
	echo "sync cluster run failed (exit $status)" >&2
	exit "$status"
}
cat "$synclog"
# The many-small-clients case: 64 connections with a pipe window of one
# each, 64 handles held at once on every shard.
"$bindir/dlht-loadgen" -addrs "$addrs" -conns 64 -pipeline 1 \
	-ops 200000 -keys 100000 -read-pct 50 -skip-load >"$sync64log" 2>&1 || {
	status=$?
	cat "$sync64log"
	echo "sync conns=64 cluster run failed (exit $status)" >&2
	exit "$status"
}
cat "$sync64log"
"$bindir/dlht-loadgen" -addrs "$addrs" -conns 4 -pipeline 64 \
	-ops 200000 -keys 100000 -read-pct 50 -skip-load >"$asynclog" 2>&1 || {
	status=$?
	cat "$asynclog"
	echo "pipelined cluster run failed (exit $status)" >&2
	exit "$status"
}
cat "$asynclog"

# "throughput: 12.34 M reqs/s (...)" → 12.34
sync_m=$(awk '/^throughput:/ {print $2}' "$synclog")
sync64_m=$(awk '/^throughput:/ {print $2}' "$sync64log")
async_m=$(awk '/^throughput:/ {print $2}' "$asynclog")
[ -n "$sync_m" ] && [ -n "$sync64_m" ] && [ -n "$async_m" ] || {
	echo "could not parse throughput" >&2
	exit 1
}

echo "cluster smoke (sync=$sync_m M/s sync64=$sync64_m M/s async=$async_m M/s)"

# ---- failover case: kill -9 one replicated durable shard mid-run ----
#
# Three fresh WAL-backed shards; the replicated pipelined loadgen (R=2 per
# key, one ack to proceed) runs against them while the middle shard is
# kill -9'd and then restarted from its WAL directory on the same port.
# The loadgen must finish without a client restart: retryable errors are
# tolerated up to -max-error-rate, -verify then reads back every loaded
# key — an acked write surviving on the other replica (or on the
# restarted shard after WAL replay) is the zero-lost-acked-writes gate.
faillog="$bindir/failover.log"
faddrs=127.0.0.1:14144,127.0.0.1:14145,127.0.0.1:14146

"$bindir/dlht-server" -addr 127.0.0.1:14144 -bins 65536 -durable "$bindir/fwal1" >"$bindir/f1.log" 2>&1 &
PIDS="$PIDS $!"
"$bindir/dlht-server" -addr 127.0.0.1:14145 -bins 65536 -durable "$bindir/fwal2" >"$bindir/f2.log" 2>&1 &
TARGET=$!
PIDS="$PIDS $TARGET"
"$bindir/dlht-server" -addr 127.0.0.1:14146 -bins 65536 -durable "$bindir/fwal3" >"$bindir/f3.log" 2>&1 &
PIDS="$PIDS $!"
sleep 1

"$bindir/dlht-loadgen" -addrs "$faddrs" -conns 4 -pipeline 64 \
	-ops 1500000 -keys 100000 -read-pct 50 \
	-replicas 2 -write-quorum 1 -max-error-rate 10 -verify >"$faillog" 2>&1 &
LG=$!

# Kill the shard while the run is hot, restart it from the same WAL.
sleep 2
kill -0 "$LG" 2>/dev/null || {
	cat "$faillog"
	echo "loadgen finished before the shard kill — no failover exercised" >&2
	exit 1
}
kill -9 "$TARGET"
sleep 1
"$bindir/dlht-server" -addr 127.0.0.1:14145 -bins 65536 -durable "$bindir/fwal2" >"$bindir/f2b.log" 2>&1 &
PIDS="$PIDS $!"

wait "$LG" || {
	status=$?
	cat "$faillog"
	echo "failover run failed (exit $status)" >&2
	exit "$status"
}
cat "$faillog"
grep -q 'recovered' "$bindir/f2b.log" || {
	cat "$bindir/f2b.log"
	echo "restarted shard shows no WAL recovery" >&2
	exit 1
}

# "availability: 99.9876% (...)" → 99.9876
avail=$(awk '/^availability:/ {sub(/%/, "", $2); print $2}' "$faillog")
# "errors: N (retryable R, terminal T, missing M)" → R
retryable=$(awk '/^errors:/ {sub(/,/, "", $4); print $4}' "$faillog")
fail_m=$(awk '/^throughput:/ {print $2}' "$faillog")
[ -n "$avail" ] && [ -n "$retryable" ] && [ -n "$fail_m" ] || {
	echo "could not parse failover metrics" >&2
	exit 1
}

echo "failover smoke (availability=$avail% retryable=$retryable mreqs=$fail_m)"
