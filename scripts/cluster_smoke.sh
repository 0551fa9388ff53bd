#!/bin/sh
# cluster_smoke.sh — distributed-enumeration crash test.
#
# Starts a spaced coordinator plus two fleet workers, fires an
# enumeration, SIGKILLs whichever worker holds the lease mid-space, and
# requires:
#
#   1. the lease expires and the assignment is re-dispatched,
#   2. the surviving worker completes it,
#   3. the served space hashes byte-identical (spacedot -hash,
#      canonical serialization) to what a single-node cmd/explore run
#      writes for the same function,
#   4. the survivor and the coordinator both drain cleanly on SIGTERM.
#
# CLUSTER_FAULTS, when set, is passed to both workers as their fault
# plan (e.g. "httpdrop=2,httpslow=2:100ms" for network chaos — see
# `make chaos`). The coordinator always runs fault-free: the point is
# that client-side faults never change the served bytes.
#
# Needs curl and jq, like serve-smoke.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
coord=""
w1=""
w2=""
cleanup() {
	for pid in $w1 $w2 $coord; do kill -9 "$pid" 2>/dev/null || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
	echo "cluster-smoke: $*" >&2
	echo "--- coordinator log ---" >&2
	cat "$tmp/coord.log" >&2 || true
	echo "--- worker logs ---" >&2
	cat "$tmp/w1.log" "$tmp/w2.log" >&2 2>/dev/null || true
	exit 1
}

stat_counter() { # stat_counter <series-name>
	curl -fsS "http://$addr/v1/stats" | jq -r --arg k "$1" '.counters[$k] // 0'
}

"$GO" build -o "$tmp/explore" ./cmd/explore
"$GO" build -o "$tmp/spacedot" ./cmd/spacedot
"$GO" build -o "$tmp/spaced" ./cmd/spaced

# Single-node reference: the distributed answer must hash identically.
"$tmp/explore" -bench sha -func sha_transform -save "$tmp" >/dev/null
want=$("$tmp/spacedot" -hash "$tmp/sha.sha_transform.space.gz" | cut -d' ' -f1)

# Coordinator with smoke-scale leases: a killed worker is noticed in
# about a second instead of the production default.
REPRO_FAULTS= "$tmp/spaced" -addr 127.0.0.1:0 -cache "$tmp/cache" \
	-ready-file "$tmp/addr" -lease-ttl 1s -poll-wait 250ms \
	-dispatch-attempts 5 -log json 2>"$tmp/coord.log" &
coord=$!
for _ in $(seq 1 100); do [ -s "$tmp/addr" ] && break; sleep 0.1; done
[ -s "$tmp/addr" ] || fail "coordinator never became ready"
addr=$(head -n1 "$tmp/addr")

start_worker() { # start_worker <id>  (sets wpid)
	REPRO_FAULTS= "$tmp/spaced" -worker -join "http://$addr" \
		-worker-id "$1" -workers 1 -scratch "$tmp/$1" \
		${CLUSTER_FAULTS:+-faults "$CLUSTER_FAULTS"} \
		-log json >/dev/null 2>"$tmp/$1.log" &
	wpid=$!
}
start_worker w1; w1=$wpid
start_worker w2; w2=$wpid
for _ in $(seq 1 100); do
	[ "$(curl -fsS "http://$addr/v1/stats" | jq -r '.fleet.workers_live // 0')" = 2 ] && break
	sleep 0.1
done
[ "$(curl -fsS "http://$addr/v1/stats" | jq -r '.fleet.workers_live // 0')" = 2 ] \
	|| fail "two workers never registered"

curl -fsS -d '{"bench":"sha","func":"sha_transform"}' \
	"http://$addr/v1/enumerate" -o "$tmp/r1.json" &
req=$!

# Find the lessee, give it a heartbeat or two to upload a progress
# checkpoint, then kill it without a goodbye.
victim=""
for _ in $(seq 1 200); do
	victim=$(curl -fsS "http://$addr/v1/stats" \
		| jq -r '.fleet.workers[]? | select(.assignments > 0) | .id' | head -n1)
	[ -n "$victim" ] && break
	sleep 0.05
done
[ -n "$victim" ] || fail "assignment never dispatched"
sleep 0.6
if [ "$victim" = w1 ]; then vpid=$w1; survivor=w2; else vpid=$w2; survivor=w1; fi
kill -9 "$vpid"
echo "cluster-smoke: SIGKILLed $victim mid-space; expecting $survivor to recover"

wait "$req" || fail "enumerate request failed"
got=$(jq -r .space_hash "$tmp/r1.json")
[ "$got" = "$want" ] || fail "recovered hash $got, single-node run wrote $want"

# The kill really landed mid-space: the victim's lease expired and the
# survivor delivered the completion.
exp=$(stat_counter "dist.lease_expiries{worker=\"$victim\"}")
[ "$exp" -ge 1 ] || fail "no lease expiry for $victim; kill landed after completion?"
done_n=$(stat_counter "dist.completions{worker=\"$survivor\"}")
[ "$done_n" -ge 1 ] || fail "survivor $survivor never completed the assignment"
# Without -shard-fanout the fleet still runs the space as one frontier
# shard: the recovery above went through the shard path.
[ "$(stat_counter dist.shard.splits)" -ge 1 ] && [ "$(stat_counter dist.shard.assignments)" = 1 ] \
	|| fail "dist.shard.splits/assignments = $(stat_counter dist.shard.splits)/$(stat_counter dist.shard.assignments), want >= 1 and 1"

# Byte identity of what the coordinator serves from its cache.
key=$(jq -r .key "$tmp/r1.json")
curl -fsS "http://$addr/v1/space/$key" -o "$tmp/served.space.gz"
served=$("$tmp/spacedot" -hash "$tmp/served.space.gz" | cut -d' ' -f1)
[ "$served" = "$want" ] || fail "served space hashes $served, want $want"

# Clean drains: survivor first, then the coordinator.
if [ "$survivor" = w1 ]; then spid=$w1; else spid=$w2; fi
kill -TERM "$spid"
wait "$spid" || fail "surviving worker did not drain cleanly"
w1=""; w2=""
kill -9 "$vpid" 2>/dev/null || true
kill -TERM "$coord"
wait "$coord" || fail "coordinator did not drain cleanly"
coord=""
echo "cluster-smoke: $victim killed, $survivor recovered, hash parity holds ($want)"
