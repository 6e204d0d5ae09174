#!/usr/bin/env bash
# Chaos matrix: run the cluster sweep of e1, e2 and a10 (coordinator + 2
# workers; a10's deadlocking points exercise the error path) under
# three seeded network-fault schedules — latency-only, partition-then-heal,
# and a kill -9 + response-drop mix — and require each cluster output to be
# byte-identical to an undisturbed single-node daemon's. This is the PR-10
# headline guarantee exercised end to end over real sockets: under any seeded
# chaos schedule the sweep completes identically or fails loudly; it never
# hangs, duplicates, or silently drops points. Needs bash, curl, and go.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill -9 $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/mdwd" ./cmd/mdwd
go build -o "$workdir/mdwbench" ./cmd/mdwbench

# Bind port 0 and recover each kernel-chosen address from the daemon's own
# "listening on" log line, so parallel CI jobs never collide on fixed ports.
wait_addr() { # pid logfile -> prints host:port
    local p=$1 log=$2 a i
    for i in $(seq 1 100); do
        a=$(sed -n 's/^mdwd: listening on \([^ ]*\) .*/\1/p' "$log" | head -1)
        if [ -n "$a" ]; then echo "$a"; return 0; fi
        kill -0 "$p" 2>/dev/null || { echo "mdwd died at startup:" >&2; cat "$log" >&2; return 1; }
        sleep 0.1
    done
    echo "mdwd never reported its listen address:" >&2; cat "$log" >&2; return 1
}

wait_healthy() { # addr logfile
    for i in $(seq 1 50); do
        curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "daemon at $1 never became healthy:"; cat "$2"; return 1
}

# Single-node baseline: the byte-for-byte ground truth every schedule is
# diffed against.
"$workdir/mdwd" -addr 127.0.0.1:0 -workers 4 >"$workdir/single.log" 2>&1 &
singlepid=$!
single=$(wait_addr "$singlepid" "$workdir/single.log")
wait_healthy "$single" "$workdir/single.log"
"$workdir/mdwbench" -daemon "http://$single" -exp e1,e2,a10 -quick >"$workdir/ref.out"
kill -TERM "$singlepid"
wait "$singlepid" 2>/dev/null || true

run_schedule() { # name spec seed kill|nokill
    local name=$1 spec=$2 seed=$3 killw=$4
    local dir="$workdir/$name"
    mkdir -p "$dir/w1" "$dir/w2" "$dir/coord"

    # Fresh worker cache dirs per schedule so every point is recomputed under
    # chaos rather than served from a previous schedule's cache.
    "$workdir/mdwd" -addr 127.0.0.1:0 -workers 2 -cache-dir "$dir/w1" -checkpoint-every 5000 >"$dir/w1.log" 2>&1 &
    local w1pid=$!
    "$workdir/mdwd" -addr 127.0.0.1:0 -workers 2 -cache-dir "$dir/w2" -checkpoint-every 5000 >"$dir/w2.log" 2>&1 &
    local w2pid=$!
    local w1 w2 coord coordpid benchpid
    w1=$(wait_addr "$w1pid" "$dir/w1.log")
    w2=$(wait_addr "$w2pid" "$dir/w2.log")
    # The chaos injector rides the coordinator's outbound transport; -peers
    # order gives the workers their chaos labels worker1, worker2.
    "$workdir/mdwd" -addr 127.0.0.1:0 -coordinator -peers "http://$w1,http://$w2" \
        -cache-dir "$dir/coord" -heartbeat 250ms \
        -chaos "$spec" -chaos-seed "$seed" >"$dir/coord.log" 2>&1 &
    coordpid=$!
    coord=$(wait_addr "$coordpid" "$dir/coord.log")
    wait_healthy "$w1" "$dir/w1.log"
    wait_healthy "$w2" "$dir/w2.log"
    wait_healthy "$coord" "$dir/coord.log"
    grep -q 'chaos enabled' "$dir/coord.log" || { echo "[$name] coordinator did not arm chaos:"; cat "$dir/coord.log"; return 1; }

    "$workdir/mdwbench" -daemon "http://$coord" -exp e1,e2,a10 -quick >"$dir/out" &
    benchpid=$!
    if [ "$killw" = kill ]; then
        sleep 0.4
        kill -9 "$w2pid" 2>/dev/null || true
    fi
    wait "$benchpid" || { echo "[$name] cluster sweep failed under chaos:"; tail -50 "$dir/coord.log"; return 1; }

    cmp -s "$workdir/ref.out" "$dir/out" || {
        echo "[$name] cluster output differs from single-node baseline under: $spec"
        diff "$workdir/ref.out" "$dir/out" | head -20
        return 1
    }

    kill -TERM "$coordpid" "$w1pid" 2>/dev/null || true
    [ "$killw" = kill ] || kill -TERM "$w2pid" 2>/dev/null || true
    wait "$coordpid" 2>/dev/null || true
    wait "$w1pid" 2>/dev/null || true
    wait "$w2pid" 2>/dev/null || true
    echo "[$name] byte-identical (seed $seed): $spec"
}

# Schedule 1 — latency only: every dispatch to both workers is slowed for the
# whole run; nothing fails, the sweep just rides it out.
run_schedule latency "latency@0s+120s:worker1*25ms; latency@0s+120s:worker2*10ms" 1 nokill

# Schedule 2 — partition then heal: worker2 is unreachable from the
# coordinator at boot (breaker opens, worker1 absorbs the load), then the
# partition heals mid-sweep and worker2 rejoins.
run_schedule partition "partition@0s+2500ms:coordinator-worker2; latency@0s+120s:worker1*5ms" 2 nokill

# Schedule 3 — kill + drop mix: worker1's responses are dropped on the floor
# for the opening burst (completed work, lost replies — at-least-once dedup
# territory) while worker2 is kill -9'd mid-sweep.
run_schedule killdrop "drop@0s+1500ms:worker1" 3 kill

echo "mdwd chaos matrix: 3 seeded schedules, all byte-identical to the single-node baseline"
