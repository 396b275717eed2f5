#!/usr/bin/env bash
# Broker high-availability gate (make e2e-ha).
#
# Proves the primary/standby pair survives the failure the journal alone
# cannot: the primary's *host* dies, journal and all. Three legs:
#
#   promote:  a journaled primary accumulates a live backlog with a hot
#             standby replicating it over /v2/replicate. The primary is
#             SIGKILLed mid-run, the operator promotes the standby
#             (dramlocker -promote), and the scheduler and a late worker
#             — both holding the full broker list with the dead primary
#             first — fail over on their own. The report must come out
#             byte-identical to a local run; the audit requires every
#             submitted task completed, no skipped replication entries,
#             and duplicate results all byte-identical (dup cache hits).
#   fence:    the dead primary rises again over its own journal on its
#             old address, still believing it is a primary at epoch 1.
#             The new primary's fencer is still retrying; its fence must
#             land, flip the zombie to a read-only replica (journaled,
#             so it survives further restarts), and a late mutation
#             posted straight at the zombie must be refused with the
#             typed not_leader error naming the new primary.
#   silence:  a fresh pair with -takeover-after 1.5s and a worker
#             attached from the start (dones delayed by a fault plan so
#             leases are in flight). The primary is SIGKILLed and nobody
#             promotes: the standby must notice the silence, promote
#             itself, requeue the dead primary's leases, and finish the
#             run to the same byte-identical report.
set -euo pipefail

cd "$(dirname "$0")/.."

EXPS=fig1b,mc,table1,fig7a,fig7b,defense
WORK=$(mktemp -d)
PIDS=()
RUN_PID=""
cleanup() {
    for pid in "${PIDS[@]}" "$RUN_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/dramlocker" ./cmd/dramlocker
go build -o "$WORK/dramlockerd" ./cmd/dramlockerd

norm() { sed -E 's/^(=== .*) \([^)]*\)( ===)$/\1\2/; /^[0-9]+ jobs, /d' "$1"; }

# wait_addr LOGFILE PID: block until the daemon logs its bound address.
wait_addr() {
    local addr=""
    for i in $(seq 1 100); do
        addr=$(sed -nE 's/.* on (127\.0\.0\.1:[0-9]+) .*/\1/p' "$1" | head -n1)
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$2" 2>/dev/null || break
        sleep 0.1
    done
    echo "daemon never came up:" >&2; cat "$1" >&2; return 1
}

# stat_of ADDR FIELD: one integer out of `dramlocker -stats -json`.
stat_of() {
    "$WORK/dramlocker" -broker "$1" -stats -json 2>/dev/null \
        | sed -nE "s/.*\"$2\": ([0-9]+).*/\1/p" | head -n1
}

# role_of ADDR: the broker's HA role string.
role_of() {
    "$WORK/dramlocker" -broker "$1" -stats -json 2>/dev/null \
        | sed -nE 's/.*"role": "([a-z]+)".*/\1/p' | head -n1
}

# wait_stat ADDR FIELD MIN TRIES: poll until the counter reaches MIN.
wait_stat() {
    local v=0
    for i in $(seq 1 "$4"); do
        v=$(stat_of "$1" "$2"); v=${v:-0}
        [ "$v" -ge "$3" ] && { echo "$v"; return 0; }
        sleep 0.05
    done
    echo "${v:-0}"
    return 1
}

# wait_caught_up PRIMARY STANDBY: block until the standby has replicated
# every task the primary has admitted (equal `submitted` counters).
wait_caught_up() {
    local ps=0 ss=0
    for i in $(seq 1 200); do
        ps=$(stat_of "$1" submitted); ps=${ps:-0}
        ss=$(stat_of "$2" submitted); ss=${ss:-0}
        if [ "$ps" -ge 1 ] && [ "$ss" -eq "$ps" ]; then echo "$ps"; return 0; fi
        sleep 0.05
    done
    echo "standby never caught up (primary $ps, standby $ss)" >&2
    return 1
}

"$WORK/dramlocker" -preset tiny -exp "$EXPS" -workers 4 -quiet > "$WORK/local.txt"
norm "$WORK/local.txt" > "$WORK/local.norm"

# ---- Leg 1: SIGKILL the primary, promote by hand ----------------------
JA="$WORK/journal-a"
SA="$WORK/journal-sa"
"$WORK/dramlockerd" -broker -addr 127.0.0.1:0 -name primary1 \
    -journal-dir "$JA" -lease-ttl 2s >"$WORK/primary1.log" 2>&1 &
PRIMARY1_PID=$!; PIDS+=("$PRIMARY1_PID")
PADDR=$(wait_addr "$WORK/primary1.log" "$PRIMARY1_PID")

"$WORK/dramlockerd" -broker -addr 127.0.0.1:0 -name standby1 \
    -journal-dir "$SA" -lease-ttl 2s -follow "$PADDR" >"$WORK/standby1.log" 2>&1 &
STANDBY1_PID=$!; PIDS+=("$STANDBY1_PID")
SADDR=$(wait_addr "$WORK/standby1.log" "$STANDBY1_PID")
grep -q "standby following" "$WORK/standby1.log" || {
    echo "FAIL: standby1 did not start in follower mode"; cat "$WORK/standby1.log"; exit 1; }
echo "pair up: primary $PADDR, standby $SADDR (replicating)"

# The scheduler gets the full list. No worker is serving yet, so the
# backlog pools on the primary and streams to the standby.
"$WORK/dramlocker" -preset tiny -exp "$EXPS" -workers 4 -quiet \
    -broker "$PADDR,$SADDR" > "$WORK/ha1.txt" &
RUN_PID=$!

REPLICATED=$(wait_caught_up "$PADDR" "$SADDR") || exit 1
echo "standby caught up: $REPLICATED task(s) replicated"

kill -9 "$PRIMARY1_PID" 2>/dev/null
wait "$PRIMARY1_PID" 2>/dev/null || true
echo "primary SIGKILLed with a live backlog"

"$WORK/dramlocker" -broker "$SADDR" -promote > "$WORK/promote.txt"
grep -q "promoted to primary at epoch 2" "$WORK/promote.txt" || {
    echo "FAIL: promote receipt wrong:"; cat "$WORK/promote.txt"; exit 1; }
[ "$(role_of "$SADDR")" = "primary" ] || { echo "FAIL: standby did not become primary"; exit 1; }

# The worker arrives only now, dead primary first in its list: hello
# must fail over to the new primary on its own.
"$WORK/dramlockerd" -pull "$PADDR,$SADDR" -preset tiny -name haworker1 -capacity 4 \
    >"$WORK/haworker1.log" 2>&1 &
WORKER1_PID=$!; PIDS+=("$WORKER1_PID")

if ! wait "$RUN_PID"; then
    echo "FAIL: run did not survive the takeover"; cat "$WORK/ha1.txt"; exit 1
fi
RUN_PID=""
if ! diff -u "$WORK/local.norm" <(norm "$WORK/ha1.txt"); then
    echo "FAIL: post-takeover report diverged from local"; exit 1
fi
echo "report byte-identical to local across the takeover"

# Audit: nothing lost, nothing double-counted. Every admitted task
# completed on the new primary; the replication stream applied cleanly
# (no skipped entries); any duplicate results were byte-identical.
SUBMITTED=$(stat_of "$SADDR" submitted); SUBMITTED=${SUBMITTED:-0}
COMPLETED=$(stat_of "$SADDR" completed); COMPLETED=${COMPLETED:-0}
APPLIED=$(stat_of "$SADDR" applied); APPLIED=${APPLIED:-0}
SKIPPED_R=$(stat_of "$SADDR" skipped); SKIPPED_R=${SKIPPED_R:-0}
DUPS=$(stat_of "$SADDR" duplicates); DUPS=${DUPS:-0}
DUP_HITS=$(stat_of "$SADDR" dup_cache_hits); DUP_HITS=${DUP_HITS:-0}
EPOCH=$(stat_of "$SADDR" epoch); EPOCH=${EPOCH:-0}
[ "$SUBMITTED" -ge 1 ] && [ "$COMPLETED" -eq "$SUBMITTED" ] || {
    echo "FAIL: backlog not drained (submitted=$SUBMITTED completed=$COMPLETED)"; exit 1; }
[ "$APPLIED" -ge "$REPLICATED" ] || { echo "FAIL: replication applied only $APPLIED entries"; exit 1; }
[ "$SKIPPED_R" -eq 0 ] || { echo "FAIL: $SKIPPED_R replicated entries were skipped"; exit 1; }
[ "$DUPS" -eq "$DUP_HITS" ] || { echo "FAIL: $DUPS duplicate results, only $DUP_HITS byte-identical"; exit 1; }
[ "$EPOCH" -eq 2 ] || { echo "FAIL: new primary at epoch $EPOCH, want 2"; exit 1; }
echo "audit: submitted=$SUBMITTED completed=$COMPLETED applied=$APPLIED skipped=0 dups=$DUPS epoch=$EPOCH"
kill "$WORKER1_PID" 2>/dev/null; wait "$WORKER1_PID" 2>/dev/null || true

# ---- Leg 2: the zombie rises and is fenced ----------------------------
# Restart leg 1's dead primary over its own journal on its old address.
# It replays and believes it is a primary at epoch 1 — until standby1's
# still-retrying fencer reaches it.
"$WORK/dramlockerd" -broker -addr "$PADDR" -name zombie1 \
    -journal-dir "$JA" -lease-ttl 2s >"$WORK/zombie1.log" 2>&1 &
ZOMBIE_PID=$!; PIDS+=("$ZOMBIE_PID")
wait_addr "$WORK/zombie1.log" "$ZOMBIE_PID" >/dev/null

FENCED=""
for i in $(seq 1 200); do
    if [ "$(role_of "$PADDR")" = "fenced" ]; then FENCED=1; break; fi
    sleep 0.1
done
[ -n "$FENCED" ] || { echo "FAIL: zombie was never fenced:"; cat "$WORK/zombie1.log"; exit 1; }
grep -q "fenced ex-primary" "$WORK/standby1.log" || {
    echo "FAIL: fencer logged no success:"; tail -n5 "$WORK/standby1.log"; exit 1; }
echo "zombie fenced at epoch $(stat_of "$PADDR" epoch)"

# A late mutation aimed straight at the zombie: refused with the typed
# retryable error, redirect and Retry-After floor included.
REFUSAL=$(curl -s -D "$WORK/refuse.hdr" -X POST "http://$PADDR/v2/submitbatch" \
    -H 'Content-Type: application/json' \
    -d '{"proto":"dlexec2","jobs":[{"proto":"dlexec2","tasks":[{"proto":"dlexec2","job":"late","shard":0,"seed":7,"key":"late@hash"}]}]}')
echo "$REFUSAL" | grep -q '"code": *"not_leader"' || {
    echo "FAIL: zombie accepted (or mis-refused) a late mutation: $REFUSAL"; exit 1; }
echo "$REFUSAL" | grep -q "\"primary\": *\"$SADDR\"" || {
    echo "FAIL: refusal does not name the new primary: $REFUSAL"; exit 1; }
grep -qi '^Retry-After:' "$WORK/refuse.hdr" || {
    echo "FAIL: refusal carries no Retry-After header"; exit 1; }
echo "late mutation refused: typed not_leader pointing at $SADDR"

# The fence is durable: restart the zombie once more and it must come
# back fenced without anyone telling it again.
kill "$ZOMBIE_PID" 2>/dev/null; wait "$ZOMBIE_PID" 2>/dev/null || true
"$WORK/dramlockerd" -broker -addr "$PADDR" -name zombie2 \
    -journal-dir "$JA" >"$WORK/zombie2.log" 2>&1 &
ZOMBIE2_PID=$!; PIDS+=("$ZOMBIE2_PID")
wait_addr "$WORK/zombie2.log" "$ZOMBIE2_PID" >/dev/null
[ "$(role_of "$PADDR")" = "fenced" ] || {
    echo "FAIL: fence did not survive the zombie's restart"; exit 1; }
echo "fence survived a further restart (journaled epoch)"
kill "$ZOMBIE2_PID" 2>/dev/null; wait "$ZOMBIE2_PID" 2>/dev/null || true
kill "$STANDBY1_PID" 2>/dev/null; wait "$STANDBY1_PID" 2>/dev/null || true

# ---- Leg 3: silence-timeout takeover with leases in flight ------------
cat > "$WORK/slow.json" <<'EOF'
{
  "seed": 99,
  "rules": [
    {"point": "server.done", "kind": "delay", "delay_ms": 400, "count": 50}
  ]
}
EOF
JB="$WORK/journal-b"
SB="$WORK/journal-sb"
"$WORK/dramlockerd" -broker -addr 127.0.0.1:0 -name primary2 \
    -journal-dir "$JB" -lease-ttl 2s \
    -fault-plan "$WORK/slow.json" -allow-faults >"$WORK/primary2.log" 2>&1 &
PRIMARY2_PID=$!; PIDS+=("$PRIMARY2_PID")
PADDR2=$(wait_addr "$WORK/primary2.log" "$PRIMARY2_PID")

"$WORK/dramlockerd" -broker -addr 127.0.0.1:0 -name standby2 \
    -journal-dir "$SB" -lease-ttl 2s -follow "$PADDR2" -takeover-after 1.5s \
    >"$WORK/standby2.log" 2>&1 &
STANDBY2_PID=$!; PIDS+=("$STANDBY2_PID")
SADDR2=$(wait_addr "$WORK/standby2.log" "$STANDBY2_PID")
echo "pair up: primary $PADDR2, standby $SADDR2 (takeover-after 1.5s)"

"$WORK/dramlockerd" -pull "$PADDR2,$SADDR2" -preset tiny -name haworker2 -capacity 2 \
    >"$WORK/haworker2.log" 2>&1 &
WORKER2_PID=$!; PIDS+=("$WORKER2_PID")

"$WORK/dramlocker" -preset tiny -exp "$EXPS" -workers 4 -quiet \
    -broker "$PADDR2,$SADDR2" > "$WORK/ha2.txt" &
RUN_PID=$!

# Kill the primary the moment a lease is out (every done is delayed
# 400ms, so the lease cannot have reported yet) and the standby has the
# backlog. Nobody promotes: the silence timer must.
if ! wait_stat "$PADDR2" leased 1 200 >/dev/null; then
    echo "FAIL: worker never leased a task on primary2"; exit 1
fi
wait_caught_up "$PADDR2" "$SADDR2" >/dev/null || exit 1
kill -9 "$PRIMARY2_PID" 2>/dev/null
wait "$PRIMARY2_PID" 2>/dev/null || true
echo "primary2 SIGKILLed with leases in flight; waiting on the silence timer"

TAKEOVER_OK=""
for i in $(seq 1 200); do
    if grep -q "promoted to primary at epoch 2 (primary silent for" "$WORK/standby2.log"; then
        TAKEOVER_OK=1; break
    fi
    sleep 0.1
done
[ -n "$TAKEOVER_OK" ] || { echo "FAIL: standby2 never self-promoted:"; cat "$WORK/standby2.log"; exit 1; }
echo "standby2 self-promoted: $(grep -o 'promoted to primary at epoch 2 ([^)]*)' "$WORK/standby2.log" | head -n1)"

if ! wait "$RUN_PID"; then
    echo "FAIL: run did not survive the silent takeover"; cat "$WORK/ha2.txt"; exit 1
fi
RUN_PID=""
if ! diff -u "$WORK/local.norm" <(norm "$WORK/ha2.txt"); then
    echo "FAIL: silent-takeover report diverged from local"; exit 1
fi
COMPLETED2=$(stat_of "$SADDR2" completed); COMPLETED2=${COMPLETED2:-0}
SUBMITTED2=$(stat_of "$SADDR2" submitted); SUBMITTED2=${SUBMITTED2:-0}
[ "$SUBMITTED2" -ge 1 ] && [ "$COMPLETED2" -eq "$SUBMITTED2" ] || {
    echo "FAIL: leg-3 backlog not drained (submitted=$SUBMITTED2 completed=$COMPLETED2)"; exit 1; }
echo "silent takeover drained the backlog (submitted=$SUBMITTED2 completed=$COMPLETED2)"
kill "$WORKER2_PID" 2>/dev/null; wait "$WORKER2_PID" 2>/dev/null || true
kill "$STANDBY2_PID" 2>/dev/null; wait "$STANDBY2_PID" 2>/dev/null || true

echo "e2e-ha: OK"
