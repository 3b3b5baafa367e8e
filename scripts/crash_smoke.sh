#!/usr/bin/env bash
# crash_smoke.sh — kill -9 crash-recovery smoke for the durable backend.
#
# Launches a dlht-server whose default table is backed by a group-commit
# WAL (-durable), drives it with dlht-crash's pipelined writer, kill -9s
# the server mid-burst, restarts it on the same directory, and verifies
# the recovered table against the writer's client-side oracle:
#
#	acked ≤ recovered ≤ issued   (per key)
#
# — no acknowledged write lost, no phantom writes. The last line of output
# is the summary:
#
#	crash smoke (keys=512 acked=1234 recovered=1250)
#
# Usage: scripts/crash_smoke.sh
set -eu
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
waldir="$bindir/wal"
oracle="$bindir/oracle.json"
writelog="$bindir/write.log"
verifylog="$bindir/verify.log"
addr=127.0.0.1:14151

go build -o "$bindir/dlht-server" ./cmd/dlht-server
go build -o "$bindir/dlht-crash" ./cmd/dlht-crash

"$bindir/dlht-server" -addr "$addr" -bins 4096 -durable "$waldir" >"$bindir/s1.log" 2>&1 &
SRV=$!
cleanup() {
	kill -9 "$SRV" 2>/dev/null || true
	wait "$SRV" 2>/dev/null || true
	rm -rf "$bindir"
}
trap cleanup EXIT

# ready waits, at most 10 s, until the server accepts a connection — after
# its recovery, which runs before it listens. A probe that connects and
# hangs up without a handshake is a connection the server just drops.
ready() {
	for _ in $(seq 100); do
		if (exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}") 2>/dev/null; then
			return 0
		fi
		sleep 0.1
	done
	echo "server at $addr not accepting after 10 s" >&2
	cat "$1" >&2
	exit 1
}
ready "$bindir/s1.log"

# Writer in the background; its oracle dump happens when the transport
# dies under it. -seconds bounds the run so a missed kill cannot hang CI.
"$bindir/dlht-crash" -mode write -addr "tcp://$addr" -oracle "$oracle" \
	-keys 512 -window 64 -seconds 30 >"$writelog" 2>&1 &
WRITER=$!

# Let the burst build real in-flight state, then pull the plug.
sleep 2
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
wait "$WRITER" || {
	status=$?
	cat "$writelog"
	echo "crash writer failed (exit $status)" >&2
	exit "$status"
}
cat "$writelog"
[ -s "$oracle" ] || { echo "writer produced no oracle" >&2; exit 1; }
if grep -q '"clean":true' "$oracle"; then
	echo "writer finished before the kill — no crash was exercised" >&2
	exit 1
fi

# Restart on the same directory; recovery replays the log.
"$bindir/dlht-server" -addr "$addr" -bins 4096 -durable "$waldir" >"$bindir/s2.log" 2>&1 &
SRV=$!
ready "$bindir/s2.log"
grep 'recovered' "$bindir/s2.log" || true

# Output to a file then cat — a pipe into tee would replace the verifier's
# exit status with tee's (no pipefail here), and that status is the gate.
"$bindir/dlht-crash" -mode verify -addr "tcp://$addr" -oracle "$oracle" >"$verifylog" 2>&1 || {
	status=$?
	cat "$verifylog"
	cat "$bindir/s2.log"
	echo "crash verify failed (exit $status)" >&2
	exit "$status"
}
cat "$verifylog"

# "verify OK: 512 keys, acked rounds 1234, recovered rounds 1250 (...)"
keys=$(awk -F'[ ,]+' '/^.*verify OK:/ {for (i=1;i<NF;i++) if ($(i+1)=="keys") print $i}' "$verifylog")
acked=$(awk '/verify OK:/ {for (i=1;i<NF;i++) if ($i=="acked" && $(i+1)=="rounds") {gsub(",","",$(i+2)); print $(i+2)}}' "$verifylog")
recovered=$(awk '/verify OK:/ {for (i=1;i<NF;i++) if ($i=="recovered" && $(i+1)=="rounds") {gsub(",","",$(i+2)); print $(i+2)}}' "$verifylog")
[ -n "$keys" ] && [ -n "$acked" ] && [ -n "$recovered" ] || {
	echo "could not parse verify summary" >&2
	exit 1
}

echo "crash smoke (keys=$keys acked=$acked recovered=$recovered)"
