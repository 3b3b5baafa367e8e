#!/bin/sh
# reshard_smoke.sh — online-resharding smoke for CI and local runs.
#
# Launches three WAL-backed dlht-server shards (with the per-key version
# index the migration's last-write-wins arbitration uses) plus one spare,
# then drives them with a replicated pipelined loadgen whose -churn flag adds
# the spare to the ring MID-RUN and cycles it back out — two full online
# reshards under live traffic. While the handoff window is open, one of
# the SOURCE shards is kill -9'd and restarted from its WAL directory on
# the same port: the bulk copy must fail over to the surviving replica
# and the membership change still complete.
#
# The gates are the paper-grade claims, not vibes: the loadgen's
# availability line must clear -max-error-rate 0.1 (>= 99.9% of ops
# acked straight through two ring flips and a shard crash), -verify must
# find every acked insert readable on the final ring, and the reshard
# must actually have moved keys. The last line of output is the summary:
#
#	reshard smoke (availability=99.99% moved=40813 mreqs=0.18 M/s)
#
# Usage: scripts/reshard_smoke.sh
set -eu
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
runlog="$bindir/reshard.log"

go build -o "$bindir/dlht-server" ./cmd/dlht-server
go build -o "$bindir/dlht-loadgen" ./cmd/dlht-loadgen

# Three serving shards and one spare, all durable and version-tracking.
"$bindir/dlht-server" -addr 127.0.0.1:14151 -bins 65536 -track-versions -durable "$bindir/rwal1" >"$bindir/r1.log" 2>&1 &
PIDS=$!
"$bindir/dlht-server" -addr 127.0.0.1:14152 -bins 65536 -track-versions -durable "$bindir/rwal2" >"$bindir/r2.log" 2>&1 &
TARGET=$!
PIDS="$PIDS $TARGET"
"$bindir/dlht-server" -addr 127.0.0.1:14153 -bins 65536 -track-versions -durable "$bindir/rwal3" >"$bindir/r3.log" 2>&1 &
PIDS="$PIDS $!"
"$bindir/dlht-server" -addr 127.0.0.1:14154 -bins 65536 -track-versions -durable "$bindir/rwal4" >"$bindir/r4.log" 2>&1 &
PIDS="$PIDS $!"
cleanup() {
	# shellcheck disable=SC2086 # PIDS is a space-separated pid list
	kill -9 $PIDS 2>/dev/null || true
	rm -rf "$bindir"
}
trap cleanup EXIT
sleep 1

addrs=127.0.0.1:14151,127.0.0.1:14152,127.0.0.1:14153
spare=127.0.0.1:14154

"$bindir/dlht-loadgen" -addrs "$addrs" -conns 4 -pipeline 64 \
	-ops 1500000 -keys 60000 -read-pct 50 \
	-replicas 2 -write-quorum 1 \
	-churn 1 -spares "$spare" \
	-max-error-rate 0.1 -verify >"$runlog" 2>&1 &
LG=$!

# Kill a source shard while the migration's handoff window is hot (the
# churn goroutine starts resharding as soon as the measured phase does),
# then restart it from the same WAL directory.
sleep 3
kill -0 "$LG" 2>/dev/null || {
	cat "$runlog"
	echo "loadgen finished before the shard kill — no mid-handoff crash exercised" >&2
	exit 1
}
kill -9 "$TARGET"
sleep 1
"$bindir/dlht-server" -addr 127.0.0.1:14152 -bins 65536 -track-versions -durable "$bindir/rwal2" >"$bindir/r2b.log" 2>&1 &
PIDS="$PIDS $!"

wait "$LG" || {
	status=$?
	cat "$runlog"
	echo "reshard run failed (exit $status)" >&2
	exit "$status"
}
cat "$runlog"
grep -q 'recovered' "$bindir/r2b.log" || {
	cat "$bindir/r2b.log"
	echo "restarted shard shows no WAL recovery" >&2
	exit 1
}
grep -q '^churn: 1 membership changes' "$runlog" || {
	echo "churn loop did not complete its membership change" >&2
	exit 1
}

# "availability: 99.9876% (...)" → 99.9876
avail=$(awk '/^availability:/ {sub(/%/, "", $2); print $2}' "$runlog")
# "reshard: moved N keys (epoch E)" → N
moved=$(awk '/^reshard: moved/ {print $3}' "$runlog")
mreqs=$(awk '/^throughput:/ {print $2}' "$runlog")
[ -n "$avail" ] && [ -n "$moved" ] && [ -n "$mreqs" ] || {
	echo "could not parse reshard metrics" >&2
	exit 1
}
[ "$moved" -gt 0 ] || {
	echo "reshard moved 0 keys — no migration happened" >&2
	exit 1
}

echo "reshard smoke (availability=$avail% moved=$moved mreqs=$mreqs M/s)"
