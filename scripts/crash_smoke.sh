#!/usr/bin/env bash
# Crash/restart smoke test: boot the three tdsql-net binaries as real
# processes with a durable settle journal, SIGKILL the ssi-server while a
# query's collection phase is journaling, restart it on the same port from
# the same journal, and require the in-flight query — and a fresh one
# after recovery — to finish oracle-checked (CHECK OK). Finally SIGTERM
# both servers and require a clean (exit 0) drain.
#
#   cargo build --release -p tdsql-net && scripts/crash_smoke.sh [--sync-every N]
#
# `--sync-every N` is passed to both ssi-server launches, so the journal
# fsyncs every N records instead of every record. A SIGKILL must lose
# nothing either way: each record is in the kernel before its call returns.
#
# The restart window is covered querier-side by bounded per-call
# reconnects plus the driver's idempotent control-plane retry loop, so a
# crash mid-collection costs retries, never result drift.
set -euo pipefail

SYNC_ARGS=()
while (($#)); do
    case "$1" in
    --sync-every)
        [[ $# -ge 2 ]] || { echo "error: --sync-every needs a value" >&2; exit 2; }
        SYNC_ARGS=(--sync-every "$2")
        shift 2
        ;;
    *)
        echo "usage: $0 [--sync-every N]" >&2
        exit 2
        ;;
    esac
done

cd "$(dirname "$0")/.."
BIN=target/release

for b in ssi-server tds-pool querier; do
    if [[ ! -x "$BIN/$b" ]]; then
        echo "error: $BIN/$b not built (run: cargo build --release -p tdsql-net)" >&2
        exit 1
    fi
done

N_TDS=120
DISTRICTS=4
WORKDIR="$(mktemp -d)"
JOURNAL="$WORKDIR/settle.journal"
SSI_PID=""
POOL_PID=""
QUERIER_PID=""
cleanup() {
    [[ -n "$QUERIER_PID" ]] && kill "$QUERIER_PID" 2>/dev/null || true
    [[ -n "$SSI_PID" ]] && kill "$SSI_PID" 2>/dev/null || true
    [[ -n "$POOL_PID" ]] && kill "$POOL_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Wait for a server's `listening on <addr>` line and echo the address.
wait_addr() {
    local log="$1" tries=100
    while ((tries-- > 0)); do
        if [[ -f "$log" ]] && grep -q '^listening on ' "$log"; then
            sed -n 's/^listening on //p' "$log" | head -n1
            return 0
        fi
        sleep 0.1
    done
    echo "error: server never printed its address ($log):" >&2
    cat "$log" >&2 || true
    return 1
}

"$BIN/ssi-server" --listen 127.0.0.1:0 --journal "$JOURNAL" --snapshot-every 64 "${SYNC_ARGS[@]}" \
    >"$WORKDIR/ssi.log" 2>&1 &
SSI_PID=$!
"$BIN/tds-pool" --listen 127.0.0.1:0 --n-tds "$N_TDS" --districts "$DISTRICTS" \
    >"$WORKDIR/pool.log" 2>&1 &
POOL_PID=$!

SSI_ADDR="$(wait_addr "$WORKDIR/ssi.log")"
POOL_ADDR="$(wait_addr "$WORKDIR/pool.log")"
echo "ssi-server at $SSI_ADDR (journal $JOURNAL ${SYNC_ARGS[*]}), tds-pool at $POOL_ADDR ($N_TDS TDSs)"

AGG_SQL="SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
WHERE c.cid = p.cid GROUP BY c.district"

run_querier() {
    local out="$1" err="$2"
    "$BIN/querier" --ssi "$SSI_ADDR" --pool "$POOL_ADDR" \
        --protocol s_agg --sql "$AGG_SQL" \
        --n-tds "$N_TDS" --districts "$DISTRICTS" \
        --retry-budget 400 --check >"$out" 2>"$err"
}

require_check_ok() {
    local label="$1" out="$2" err="$3"
    grep -q 'CHECK OK' "$out" || {
        echo "error: $label: no CHECK OK in output" >&2
        cat "$out" "$err" >&2
        exit 1
    }
    echo "$label: CHECK OK"
}

# --- Query 1 rides across a SIGKILL + journal restart. ------------------
echo "--- query across SIGKILL/restart"
run_querier "$WORKDIR/q1.out" "$WORKDIR/q1.err" &
QUERIER_PID=$!

# Kill once the collection phase is demonstrably journaling.
tries=300
while ((tries-- > 0)); do
    size=$(stat -c %s "$JOURNAL" 2>/dev/null || echo 0)
    ((size > 4096)) && break
    if ! kill -0 "$QUERIER_PID" 2>/dev/null; then
        echo "error: querier exited before the kill trigger" >&2
        cat "$WORKDIR/q1.out" "$WORKDIR/q1.err" >&2
        exit 1
    fi
    sleep 0.02
done
((size > 4096)) || {
    echo "error: journal never grew past the kill trigger (size $size)" >&2
    exit 1
}

kill -9 "$SSI_PID"
wait "$SSI_PID" 2>/dev/null || true
echo "SIGKILLed ssi-server at journal size $size; restarting on $SSI_ADDR"

"$BIN/ssi-server" --listen "$SSI_ADDR" --journal "$JOURNAL" --snapshot-every 64 "${SYNC_ARGS[@]}" \
    >"$WORKDIR/ssi2.log" 2>&1 &
SSI_PID=$!
wait_addr "$WORKDIR/ssi2.log" >/dev/null

wait "$QUERIER_PID" || {
    echo "error: in-flight querier failed across the crash" >&2
    cat "$WORKDIR/q1.out" "$WORKDIR/q1.err" "$WORKDIR/ssi2.log" >&2
    exit 1
}
QUERIER_PID=""
require_check_ok "crash-straddling query" "$WORKDIR/q1.out" "$WORKDIR/q1.err"

# --- Query 2 proves the recovered ledger serves fresh queries. ----------
echo "--- fresh query post-recovery"
run_querier "$WORKDIR/q2.out" "$WORKDIR/q2.err" || {
    echo "error: post-recovery querier failed" >&2
    cat "$WORKDIR/q2.out" "$WORKDIR/q2.err" >&2
    exit 1
}
require_check_ok "post-recovery query" "$WORKDIR/q2.out" "$WORKDIR/q2.err"

# --- The pool is stateless: SIGKILL + restart reprovisions the same ------
# --- population from the burn-time seeds. --------------------------------
echo "--- tds-pool kill/restart"
kill -9 "$POOL_PID"
wait "$POOL_PID" 2>/dev/null || true
"$BIN/tds-pool" --listen "$POOL_ADDR" --n-tds "$N_TDS" --districts "$DISTRICTS" \
    >"$WORKDIR/pool2.log" 2>&1 &
POOL_PID=$!
wait_addr "$WORKDIR/pool2.log" >/dev/null

run_querier "$WORKDIR/q3.out" "$WORKDIR/q3.err" || {
    echo "error: post-pool-restart querier failed" >&2
    cat "$WORKDIR/q3.out" "$WORKDIR/q3.err" >&2
    exit 1
}
require_check_ok "post-pool-restart query" "$WORKDIR/q3.out" "$WORKDIR/q3.err"

# --- SIGTERM drains both servers cleanly (exit 0). ----------------------
echo "--- SIGTERM drain"
kill -TERM "$SSI_PID"
kill -TERM "$POOL_PID"
wait "$SSI_PID" || {
    echo "error: ssi-server SIGTERM drain exited non-zero" >&2
    cat "$WORKDIR/ssi2.log" >&2
    exit 1
}
wait "$POOL_PID" || {
    echo "error: tds-pool SIGTERM drain exited non-zero" >&2
    cat "$WORKDIR/pool2.log" >&2
    exit 1
}
SSI_PID=""
POOL_PID=""

echo "crash smoke ok: SIGKILL mid-collection + journal restart, pool kill/restart, all queries oracle-checked, clean drain"
