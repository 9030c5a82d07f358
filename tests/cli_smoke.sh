#!/usr/bin/env bash
# End-to-end smoke test of the command-line tools:
#   ldp-synth -> ldp-trace-convert (pcap -> txt -> ldpb -> erf -> pcap)
#   -> ldp-zone-construct -> ldp-server + ldp-replay over loopback.
# Invoked by ctest with the tool paths as arguments.
set -euo pipefail

SYNTH=$1
CONVERT=$2
ZONECONSTRUCT=$3
SERVER=$4
REPLAY=$5
WORKER=$6

WORK=$(mktemp -d)
trap 'kill $SERVER_PID $REPLAY_PID ${SILENT_PID:-} 2>/dev/null || true; rm -rf "$WORK"' EXIT
REPLAY_PID=""
cd "$WORK"

# counter OUTPUT NAME: the value ldp-replay printed for one counter-table
# entry ("<name>: <value>", e.g. lifecycle.timeouts).
counter() { echo "$1" | sed -n "s/^$2: *\([0-9-]*\)\$/\1/p"; }

# usage_error WANT ARGS...: ldp-replay ARGS must exit 2 and say WANT.
# timeout: an option that wrongly got through could replay (or spin) on.
usage_error() {
  local want=$1 rc=0
  shift
  timeout 10 $REPLAY "$@" > usage.log 2>&1 || rc=$?
  [ "$rc" = 2 ] || { echo "ldp-replay $*: exit $rc, wanted 2"; cat usage.log; exit 1; }
  grep -qF -- "$want" usage.log \
    || { echo "ldp-replay $*: no '$want' in:"; cat usage.log; exit 1; }
}

echo "== synth: generate a small workload in every format"
$SYNTH fixed --gap-us 5000 --duration 2 --clients 20 --seed 7 trace.pcap
$SYNTH root --rate 200 --duration 2 --seed 7 root.ldpb
$SYNTH attack --rate 500 --duration 1 --victim example.com atk.txt

echo "== convert: pcap -> txt -> ldpb -> erf -> pcap"
$CONVERT trace.pcap trace.txt
$CONVERT trace.txt trace.ldpb
$CONVERT trace.ldpb trace.erf
$CONVERT trace.erf trace2.pcap
# The round trip preserves the query count.
n1=$(grep -vc '^#' trace.txt || true)
$CONVERT trace2.pcap trace2.txt
n2=$(grep -vc '^#' trace2.txt || true)
[ "$n1" = "$n2" ] || { echo "round-trip count mismatch: $n1 vs $n2"; exit 1; }

echo "== zone-construct: build zones from a capture"
$ZONECONSTRUCT trace.pcap zones_out
[ -f zones_out/views.conf ] || { echo "no views.conf produced"; exit 1; }

echo "== server + replay over loopback"
cat > example.zone <<'EOF'
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
* IN A 192.0.2.80
EOF
PORT=$(( (RANDOM % 10000) + 20000 ))
$SERVER --port $PORT example.zone &
SERVER_PID=$!
sleep 0.5

OUT=$($REPLAY --fast trace.ldpb 127.0.0.1 $PORT)
echo "$OUT"
[ "$(counter "$OUT" queries_sent)" = 400 ] || { echo "unexpected query count"; exit 1; }
[ "$(counter "$OUT" responses_received)" -gt 0 ] || { echo "no responses received"; exit 1; }

echo "== replay with live what-if mutation (--transport tcp --dnssec)"
OUT2=$($REPLAY --fast --transport tcp --dnssec --prefix smoke trace.ldpb 127.0.0.1 $PORT)
echo "$OUT2"
[ "$(counter "$OUT2" connections_opened)" -gt 0 ] || exit 1

echo "== checkpoint / kill -9 / resume round trip"
# Paced replay (2s trace) with frequent snapshots; kill it mid-run, then
# resume from the checkpoint. The merged totals must account for every
# query in the trace — nothing lost across the crash.
CKPT=ckpt.state
$REPLAY --checkpoint $CKPT --checkpoint-interval 0.2 trace.ldpb 127.0.0.1 $PORT \
  > resume_first.log 2>&1 &
REPLAY_PID=$!
sleep 1
kill -9 $REPLAY_PID 2>/dev/null || true
wait $REPLAY_PID 2>/dev/null || true
REPLAY_PID=""
[ -f $CKPT ] || { echo "no checkpoint written before the kill"; exit 1; }
# 2>&1: the "resuming from" banner goes to stderr.
OUT3=$($REPLAY --checkpoint $CKPT --resume trace.ldpb 127.0.0.1 $PORT 2>&1)
echo "$OUT3"
echo "$OUT3" | grep -q "resuming from" || { echo "resume did not load the checkpoint"; exit 1; }
[ "$(counter "$OUT3" queries_sent)" = 400 ] || { echo "resumed run lost queries"; exit 1; }

kill $SERVER_PID
wait $SERVER_PID 2>/dev/null || true

echo "== hardened server: --limits/--overload accepted, replay still answered"
PORT2=$(( (RANDOM % 10000) + 20000 ))
$SERVER --port $PORT2 \
  --limits max-conns:32,quota:16,read-deadline:2s,max-partial:4096 \
  --overload policy:refuse,high:28,low:14 example.zone 2> hardened.log &
SERVER_PID=$!
sleep 0.5
OUT4=$($REPLAY --fast trace.ldpb 127.0.0.1 $PORT2)
echo "$OUT4"
[ "$(counter "$OUT4" responses_received)" -gt 0 ] || { echo "hardened server answered nothing"; exit 1; }
kill $SERVER_PID
wait $SERVER_PID 2>/dev/null || true
grep -q "limits: max-conns:32" hardened.log || { echo "limits banner missing"; exit 1; }
grep -q "overload: policy:refuse" hardened.log || { echo "overload banner missing"; exit 1; }
grep -q "connections:" hardened.log || { echo "connection summary missing"; exit 1; }

echo "== sharded server + two-querier replay over loopback (--shards 2, --queriers 2)"
PORT3=$(( (RANDOM % 10000) + 20000 ))
$SERVER --port $PORT3 --shards 2 example.zone 2> sharded.log &
SERVER_PID=$!
sleep 0.5
OUT5=$($REPLAY --fast --queriers 2 trace.ldpb 127.0.0.1 $PORT3)
echo "$OUT5"
[ "$(counter "$OUT5" queries_sent)" = 400 ] || { echo "two-querier replay lost queries"; exit 1; }
[ "$(counter "$OUT5" responses_received)" -gt 0 ] || { echo "sharded server answered nothing"; exit 1; }
kill $SERVER_PID
wait $SERVER_PID 2>/dev/null || true
grep -q "shards: 2 (SO_REUSEPORT" sharded.log || { echo "server shard banner missing"; exit 1; }
grep -q "shard 0 connections:" sharded.log || { echo "per-shard summary missing"; exit 1; }
grep -q "shard 1 connections:" sharded.log || { echo "per-shard summary missing"; exit 1; }
grep -q "connections (merged):" sharded.log || { echo "merged summary missing"; exit 1; }

echo "== server --shards and replay --queriers are strictly validated"
if $SERVER --shards 0 example.zone 2> badshards.log; then
  echo "--shards 0 was accepted"; exit 1
fi
grep -q "bad --shards" badshards.log || { echo "missing server --shards error"; exit 1; }
usage_error "bad --queriers: wants a plain integer" --queriers banana trace.ldpb 127.0.0.1 9
usage_error "bad --queriers: must be between 1 and 1024" --queriers 0 trace.ldpb 127.0.0.1 9

echo "== the replay's shard and distributor tiers are gone: --queriers is the fan-out"
usage_error "unknown option '--shards'" --shards 2 trace.ldpb 127.0.0.1 9
usage_error "unknown option '--distributors'" --distributors 2 trace.ldpb 127.0.0.1 9

echo "== ports and sizes are range-checked, never wrapped or ignored"
# timeout: a server that wrongly accepted the flag would serve forever.
if timeout 5 $SERVER --port 70000 example.zone 2> badints.log; then
  echo "server --port 70000 was accepted"; exit 1
fi
grep -q "bad --port: must be between 0 and 65535" badints.log \
  || { echo "missing server --port range error"; exit 1; }
if timeout 5 $SERVER --cache x example.zone 2>> badints.log; then
  echo "server --cache x was accepted"; exit 1
fi
grep -q "bad --cache: wants a plain integer" badints.log \
  || { echo "missing server --cache error"; exit 1; }
if $REPLAY --fast trace.ldpb 127.0.0.1 70000 2>> badints.log; then
  echo "replay port 70000 was accepted"; exit 1
fi
grep -q "bad port: must be between 1 and 65535" badints.log \
  || { echo "missing replay port range error"; exit 1; }

echo "== four-querier checkpoint / kill -9 / --queriers 4 --resume round trip"
PORT4=$(( (RANDOM % 10000) + 20000 ))
$SERVER --port $PORT4 example.zone &
SERVER_PID=$!
sleep 0.5
# Paced four-querier replay gathering every querier into one snapshot file;
# kill it mid-run, then resume from that file. Totals must cover every query.
CKPT4=ckpt4.state
$REPLAY --queriers 4 --checkpoint $CKPT4 --checkpoint-interval 0.2 \
  trace.ldpb 127.0.0.1 $PORT4 > querier_resume_first.log 2>&1 &
REPLAY_PID=$!
sleep 1
kill -9 $REPLAY_PID 2>/dev/null || true
wait $REPLAY_PID 2>/dev/null || true
REPLAY_PID=""
[ -f $CKPT4 ] || { echo "no checkpoint written"; exit 1; }
[ "$(ls $CKPT4* | grep -cv '\.tmp$')" = 1 ] \
  || { echo "more than one checkpoint file: $(ls $CKPT4*)"; exit 1; }
OUT6=$($REPLAY --queriers 4 --checkpoint $CKPT4 --resume trace.ldpb 127.0.0.1 $PORT4 2>&1)
echo "$OUT6"
echo "$OUT6" | grep -q "resuming from $CKPT4:" \
  || { echo "resume did not load the checkpoint"; exit 1; }
[ "$(counter "$OUT6" queries_sent)" = 400 ] || { echo "four-querier resume lost queries"; exit 1; }

echo "== four-querier TCP checkpoint / kill -9 / --queriers 4 --resume round trip"
# The same cut over TCP, taken against a server that accepts connections
# but drops every query (overloaded from its first connection on), so the
# cut holds in-flight queries; the resume resends them over fresh
# per-source connections to the answering server.
PORT5=$(( PORT4 + 1 ))
$SERVER --port $PORT5 --overload policy:drop,high:1 example.zone &
SILENT_PID=$!
sleep 0.5
CKPT4T=ckpt4tcp.state
$REPLAY --transport tcp --queriers 4 --checkpoint $CKPT4T --checkpoint-interval 0.2 \
  trace.ldpb 127.0.0.1 $PORT5 > querier_tcp_resume_first.log 2>&1 &
REPLAY_PID=$!
sleep 1
kill -9 $REPLAY_PID 2>/dev/null || true
wait $REPLAY_PID 2>/dev/null || true
REPLAY_PID=""
kill $SILENT_PID 2>/dev/null || true
wait $SILENT_PID 2>/dev/null || true
[ -f $CKPT4T ] || { echo "no TCP checkpoint written"; exit 1; }
[ "$(ls $CKPT4T* | grep -cv '\.tmp$')" = 1 ] \
  || { echo "more than one TCP checkpoint file: $(ls $CKPT4T*)"; exit 1; }
OUT6T=$($REPLAY --transport tcp --queriers 4 --checkpoint $CKPT4T --resume \
  trace.ldpb 127.0.0.1 $PORT4 2>&1)
echo "$OUT6T"
echo "$OUT6T" | grep -q "resuming from $CKPT4T:" \
  || { echo "TCP resume did not load the checkpoint"; exit 1; }
[ "$(counter "$OUT6T" queries_sent)" = 400 ] || { echo "four-querier TCP resume lost queries"; exit 1; }
[ "$(counter "$OUT6T" lifecycle.adopted_resends)" -gt 0 ] \
  || { echo "TCP cut held no in-flight queries to resend"; exit 1; }

echo "== distributed replay: --workers 2 forked worker processes"
OUT7=$($REPLAY --workers 2 --worker-bin $WORKER trace.ldpb 127.0.0.1 $PORT4 2>&1)
echo "$OUT7"
echo "$OUT7" | grep -q "workers: 2 replay processes" || { echo "dist banner missing"; exit 1; }
[ "$(counter "$OUT7" queries_sent)" = 400 ] || { echo "dist replay lost queries"; exit 1; }
[ "$(counter "$OUT7" worker_crashes)" = 0 ] || { echo "clean dist run reported crashes"; exit 1; }

echo "== distributed replay: --queriers sets each worker's querier threads"
OUT7Q=$($REPLAY --workers 2 --queriers 2 --worker-bin $WORKER trace.ldpb 127.0.0.1 $PORT4 2>&1)
[ "$(counter "$OUT7Q" queries_sent)" = 400 ] || { echo "--workers 2 --queriers 2 lost queries"; exit 1; }

echo "== distributed replay: kill -9 a worker, respawn, resume"
OUT8=$($REPLAY --workers 2 --worker-bin $WORKER --checkpoint-interval 0.3 \
  --kill-worker 1 --kill-after 1.2 trace.ldpb 127.0.0.1 $PORT4 2>&1)
echo "$OUT8"
echo "$OUT8" | grep -q "respawning (1/" || { echo "no respawn after the kill"; exit 1; }
[ "$(counter "$OUT8" worker_crashes)" = 1 ] && [ "$(counter "$OUT8" workers_respawned)" = 1 ] \
  || { echo "crash counters wrong"; exit 1; }
[ "$(counter "$OUT8" queries_sent)" = 400 ] \
  || { echo "crash-resume dist run lost queries"; exit 1; }
kill $SERVER_PID
wait $SERVER_PID 2>/dev/null || true

echo "== --workers is strictly validated"
if $REPLAY --workers 0 trace.ldpb 127.0.0.1 $PORT4 2> badworkers.log; then
  echo "--workers 0 was accepted"; exit 1
fi
grep -q "between 1 and 64" badworkers.log || { echo "missing --workers range error"; exit 1; }
if $REPLAY --workers banana trace.ldpb 127.0.0.1 $PORT4 2>> badworkers.log; then
  echo "--workers banana was accepted"; exit 1
fi
grep -q "plain integer" badworkers.log || { echo "missing --workers parse error"; exit 1; }
if $REPLAY --workers 2 --checkpoint ck.state trace.ldpb 127.0.0.1 $PORT4 2>> badworkers.log; then
  echo "--workers + --checkpoint conflict was accepted"; exit 1
fi
grep -q "incompatible" badworkers.log || { echo "missing conflict error"; exit 1; }
if $REPLAY --kill-worker 1 trace.ldpb 127.0.0.1 $PORT4 2>> badworkers.log; then
  echo "--kill-worker without --workers was accepted"; exit 1
fi
grep -q "need --workers" badworkers.log || { echo "missing dependency error"; exit 1; }

echo "== numeric flags are strict: no strtol/strtod guessing"
# --kill-worker x used to become 0 and SIGKILL worker 0; a zero or garbage
# --checkpoint-interval used to spin the replay forever.
usage_error "bad --kill-worker: wants a plain integer, got 'x'" \
  --workers 2 --kill-worker x trace.ldpb 127.0.0.1 9
usage_error "bad --kill-worker: must be between 0 and 63" \
  --workers 2 --kill-worker 64 trace.ldpb 127.0.0.1 9
usage_error "bad --kill-after: wants a non-negative number, got 'x'" \
  --workers 2 --kill-worker 1 --kill-after x trace.ldpb 127.0.0.1 9
usage_error "bad --kill-after: must be positive" \
  --workers 2 --kill-worker 1 --kill-after 0 trace.ldpb 127.0.0.1 9
usage_error "bad --scale: wants a non-negative number, got '-2'" \
  --scale -2 trace.ldpb 127.0.0.1 9
usage_error "bad --scale: must be positive" --scale 0 trace.ldpb 127.0.0.1 9
usage_error "bad --shed-grace: wants a non-negative number, got '5ms'" \
  --shed-grace 5ms trace.ldpb 127.0.0.1 9
usage_error "bad --checkpoint-interval: must be positive" \
  --checkpoint ck.state --checkpoint-interval 0 trace.ldpb 127.0.0.1 9
usage_error "bad --checkpoint-interval: wants a non-negative number, got 'x'" \
  --checkpoint ck.state --checkpoint-interval x trace.ldpb 127.0.0.1 9
usage_error "bad --checkpoint-interval: must be positive and at most 1000000" \
  --checkpoint-interval 1e300 trace.ldpb 127.0.0.1 9

echo "== removed options fail loudly"
usage_error "unknown option '--no-supervise'" --no-supervise trace.ldpb 127.0.0.1 9
usage_error "unknown option '--heartbeat-timeout'" \
  --heartbeat-timeout 1 trace.ldpb 127.0.0.1 9
usage_error "unknown fault spec key 'querier_stall'" \
  --fault querier_stall:0 trace.ldpb 127.0.0.1 9

echo "== hardened server: malformed specs are strict errors"
if $SERVER --limits max-conn:32 example.zone 2> badspec.log; then
  echo "bad --limits spec was accepted"; exit 1
fi
grep -q "bad --limits spec" badspec.log || { echo "missing --limits error"; exit 1; }
if $SERVER --overload policy:reboot,high:8 example.zone 2>> badspec.log; then
  echo "bad --overload spec was accepted"; exit 1
fi
grep -q "bad --overload spec" badspec.log || { echo "missing --overload error"; exit 1; }

echo "CLI smoke test passed"
