#!/usr/bin/env bash
# Boots a 3-daemon real-transport cluster on localhost, drives the fig2-style
# mixed workload through `skueue-ingress` (sequential-consistency verifier
# on), exercises a join wave plus a leave through `skueue-ctl`, and shuts the
# cluster down.  Fails if any step exits non-zero, if verification fails, or
# if a daemon does not exit cleanly — i.e. leaks its listener thread.
#
# Usage:
#   scripts/net_smoke.sh [BASE_PORT]
#
#   BASE_PORT  first of three consecutive TCP ports (default: 7451)
#
# See DEPLOY.md for the hand-run version of this walkthrough.
set -euo pipefail

cd "$(dirname "$0")/.."

BASE_PORT="${1:-7451}"
DAEMONS="127.0.0.1:${BASE_PORT},127.0.0.1:$((BASE_PORT + 1)),127.0.0.1:$((BASE_PORT + 2))"
COMMON=(--daemons "$DAEMONS" --initial 5 --shards 2)

cargo build --release --bins

BIN=target/release
PIDS=()
cleanup() {
    # Best-effort teardown if a step fails mid-run.
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

echo "== booting 3 daemons on $DAEMONS"
for i in 0 1 2; do
    "$BIN/skueue-node" "${COMMON[@]}" --index "$i" &
    PIDS+=($!)
done

echo "== cluster status"
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd status

echo "== fig2 workload through the ingress (verifier on)"
"$BIN/skueue-ingress" "${COMMON[@]}" --workload fig2 --ops 40 --seed 1

echo "== join wave of 2, then leave one joiner"
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd join --count 2

# A daemon runs its host thread, its listener and one reader per open
# connection, whatever number of processes it hosts: at most 2 peer readers
# and 2 client readers here.
echo "== threads per daemon (at most 6)"
for pid in "${PIDS[@]}"; do
    threads=$(awk '/^Threads:/ {print $2}' "/proc/$pid/status")
    echo "daemon $pid: $threads threads"
    if [ "$threads" -gt 6 ]; then
        echo "daemon $pid runs $threads threads, more than 6" >&2
        exit 1
    fi
done
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd leave --pid 5

echo "== shutdown"
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd shutdown

# Every daemon must exit cleanly on its own — a hang here means a leaked
# node thread or listener socket.
for pid in "${PIDS[@]}"; do
    wait "$pid"
done
PIDS=()
trap - EXIT

echo "net smoke passed: workload consistent, churn applied, clean shutdown"
