#!/usr/bin/env bash
# resp_smoke.sh — end-to-end smoke for the RESP2 front-end.
#
# Launches a dlht-server with -resp, proves drop-in Redis compatibility,
# and measures pipelined SET/GET throughput. When redis-benchmark and
# redis-cli are installed the real Redis tooling drives the server
# (redis-cli sanity incl. TTL expiry, then redis-benchmark -t set,get
# -P 16); otherwise it falls back to the internal RESP client
# (dlht-loadgen -resp), which runs the same sanity and phases, and notes
# the skip. It is a pass/fail gate; the last line of output is the
# summary:
#
#	resp smoke (tool=redis-benchmark set=0.42 get=0.61 Mreq/s)
#
# Usage: scripts/resp_smoke.sh
set -eu
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
benchlog="$bindir/bench.log"
host=127.0.0.1
port=16379
addr="$host:$port"

go build -o "$bindir/dlht-server" ./cmd/dlht-server
go build -o "$bindir/dlht-loadgen" ./cmd/dlht-loadgen

"$bindir/dlht-server" -addr 127.0.0.1:14161 -resp "$addr" >"$bindir/server.log" 2>&1 &
SRV=$!
cleanup() {
	kill "$SRV" 2>/dev/null || true
	rm -rf "$bindir"
}
trap cleanup EXIT

# ready waits, at most 10 s, until the RESP listener accepts a connection.
# A probe that connects and hangs up sends no command.
ready() {
	for _ in $(seq 100); do
		if (exec 3<>"/dev/tcp/$host/$port") 2>/dev/null; then
			return 0
		fi
		sleep 0.1
	done
	echo "server at $addr not accepting after 10 s" >&2
	cat "$bindir/server.log" >&2
	exit 1
}
ready

if command -v redis-benchmark >/dev/null 2>&1 && command -v redis-cli >/dev/null 2>&1; then
	tool=redis-benchmark
	# Sanity with the real client: round trip, then a TTL that expires.
	[ "$(redis-cli -h "$host" -p "$port" SET smoke:k v)" = "OK" ] || { echo "redis-cli SET failed" >&2; exit 1; }
	[ "$(redis-cli -h "$host" -p "$port" GET smoke:k)" = "v" ] || { echo "redis-cli GET failed" >&2; exit 1; }
	[ "$(redis-cli -h "$host" -p "$port" SET smoke:ttl v EX 1)" = "OK" ] || { echo "redis-cli SET EX failed" >&2; exit 1; }
	[ "$(redis-cli -h "$host" -p "$port" GET smoke:ttl)" = "v" ] || { echo "redis-cli GET before TTL failed" >&2; exit 1; }
	sleep 2
	[ -z "$(redis-cli -h "$host" -p "$port" GET smoke:ttl)" ] || { echo "key survived its TTL" >&2; exit 1; }
	[ "$(redis-cli -h "$host" -p "$port" TTL smoke:ttl)" = "-2" ] || { echo "TTL after expiry != -2" >&2; exit 1; }
	echo "redis-cli sanity: ok (SET/GET, TTL expiry)"

	# Output to a file then cat — a pipe into tee would replace the
	# benchmark's exit status with tee's.
	redis-benchmark -h "$host" -p "$port" -t set,get -n 200000 -P 16 --csv >"$benchlog" 2>&1 || {
		status=$?
		cat "$benchlog"
		echo "redis-benchmark failed (exit $status)" >&2
		exit "$status"
	}
	cat "$benchlog"
	# --csv: "SET","123456.78",... — requests per second in column 2.
	set_mreqs=$(awk -F'"' '/^"SET"/ {printf "%.2f", $4/1e6}' "$benchlog")
	get_mreqs=$(awk -F'"' '/^"GET"/ {printf "%.2f", $4/1e6}' "$benchlog")
else
	tool=internal
	echo "redis-benchmark/redis-cli not installed; falling back to the internal RESP client (dlht-loadgen -resp)"
	"$bindir/dlht-loadgen" -resp "$addr" -conns 8 -pipeline 16 -ops 200000 -keys 100000 >"$benchlog" 2>&1 || {
		status=$?
		cat "$benchlog"
		cat "$bindir/server.log"
		echo "dlht-loadgen -resp failed (exit $status)" >&2
		exit "$status"
	}
	cat "$benchlog"
	# "resp set: 1.23 M reqs/s (...)"
	set_mreqs=$(awk '/^resp set:/ {print $3}' "$benchlog")
	get_mreqs=$(awk '/^resp get:/ {print $3}' "$benchlog")
fi

[ -n "$set_mreqs" ] && [ -n "$get_mreqs" ] || {
	echo "could not parse throughput from $benchlog" >&2
	exit 1
}

echo "resp smoke (tool=$tool set=$set_mreqs get=$get_mreqs Mreq/s)"
