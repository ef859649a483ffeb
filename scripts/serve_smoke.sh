#!/usr/bin/env bash
# Control-plane smoke gate: build the binary, start the daemon with a
# persistent store and background churn, drive the northbound API end to
# end, kill the daemon mid-churn (SIGKILL — no orderly snapshot), restart
# it on the same store, and assert the desired set and ledger recovered.
# CI runs this via `make serve-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR=127.0.0.1:17653
DIR=$(mktemp -d)
BIN="$DIR/ufabsim"
PID=
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; rm -rf "$DIR"' EXIT

go build -o "$BIN" ./cmd/ufabsim

ctl() { "$BIN" ctl -addr "$ADDR" "$@"; }

wait_ready() {
	for _ in $(seq 1 100); do
		if ctl status >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "daemon never answered on $ADDR" >&2
	return 1
}

"$BIN" serve -addr "$ADDR" -store "$DIR/state" -churn &
PID=$!
wait_ready

# Drive the API: admissions, a what-if, inspection, a release.
ctl admit -id 9001 -g 1e9 -vms 2 | grep -q '"accepted": true'
ctl admit -id 9002 -g 2e9 -vms 2 | grep -q '"accepted": true'
ctl admit -id 9003 -g 5e8 -vms 3 | grep -q '"accepted": true'
ctl admit -id 9001 -g 1e9 -vms 2 | grep -q '"reason": "duplicate"'
ctl evaluate -id 9004 -g 1e9 | grep -q '"accepted": true'
ctl tenant 9002 | grep -q '"status": "Placed"'
ctl release 9003 | grep -q '"released": true'
ctl fleet | grep -q '"slots_per_host"'
ctl ledger | grep -q '"verify_ok": true'
ctl findings >/dev/null
ctl metrics | grep -q 'placement.ctl.admitted'

# A hostile what-if: a VM count no fleet can hold is turned away by the
# admission transaction's bound check (no policy may size a working set by
# it), and the daemon keeps answering.
ctl evaluate -id 9005 -g 1e9 -vms 2000000000 | grep -q '"reason": "placement"'
ctl status | grep -q '"now_ps"'

# Let the churn workload run, then SIGKILL mid-flight: recovery must ride
# the WAL tail, not a clean shutdown snapshot.
sleep 1
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=

"$BIN" serve -addr "$ADDR" -store "$DIR/state" -churn &
PID=$!
wait_ready

# The standing tenants survived the crash; the released one stayed gone;
# the recovered ledger verifies against the desired set.
ctl tenant 9001 | grep -q '"status": "Placed"'
ctl tenant 9002 | grep -q '"status": "Placed"'
if ctl tenant 9003 >/dev/null 2>&1; then
	echo "released tenant resurrected after restart" >&2
	exit 1
fi
ctl ledger | grep -q '"verify_ok": true'
ctl status | grep -q '"now_ps"'

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=
echo "serve smoke ok"
