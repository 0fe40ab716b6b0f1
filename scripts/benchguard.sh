#!/usr/bin/env bash
# CI bench smoke + regression guard: runs the solver benchmarks briefly,
# then fails against the committed BENCH_results.json baseline if
#   - any exact-path benchmark's allocs/op regressed by more than 20%, or
#   - a region-LP build + hash benchmark allocates more than 4 times per
#     op, or
#   - the verdict-cache-hit benchmark regressed ns/op or allocs/op by
#     more than 20% (its wall time is the point of the cache, so it
#     gates; the other benchmarks' ns/op deltas are printed but never
#     gate — they move with the runner's hardware).
#
# The smoke benchmarks run a fixed short -benchtime; the guarded
# benchmarks run the default 1s benchtime so their ns/op converges the
# same way the recorded baseline did (short fixed-count runs are too
# sensitive to transient CPU state to gate at a 20% budget).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-FeasibilityLP|Fig9aFeasibility|RegionLPHash}"
GUARDBENCH="${GUARDBENCH:-VerdictCacheHit|VerdictCacheHitEphemeral|SweepGrid|StreamIngest|JournalAppend}"
BENCHTIME="${BENCHTIME:-50x}"
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

{
  go test -run=NONE -bench "${BENCH}" -benchmem -benchtime="${BENCHTIME}" -timeout 30m .
  go test -run=NONE -bench "${GUARDBENCH}" -benchmem -timeout 30m . ./internal/engine ./internal/jobs ./internal/jobstore
} | tee "${TMP}/bench.txt"
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -f scripts/benchjson.awk "${TMP}/bench.txt" > "${TMP}/bench.json"

# SweepGrid and SweepGridBatched gate allocs/op only: their allocation
# counts balloon if the behaviour-class planner, the pooled per-class
# corpus materialisation, or the verdict-cache dedup regresses, while
# their wall time tracks math/big throughput on the runner. (The
# unanchored SweepGrid pattern matches both deliberately.)
# StreamIngest gates allocs/op only, on both variants: per-observation
# allocation on the live ingest path is the stream tier's memory story,
# while its wall time — dominated by the ephemeral per-ingest region
# build — tracks allocator/GC throughput on the runner and is too noisy
# to gate at a 20% budget.
# VerdictCacheHitEphemeral gates allocs/op only: it is the verdict-cache
# hit path of every service request (fresh region, LP-hash memo hit, no
# LP built or hashed), so an allocation there is paid per observation
# served, while its wall time is the region build's and as noisy as
# StreamIngest's. The ns/op gate is anchored so it keeps covering exactly
# VerdictCacheHit.
# JournalAppend gates allocs/op only: the per-event append is the hot
# path of every journaled job (one frame per committed cell/node), so
# allocation creep there multiplies across whole sweeps, while its wall
# time on the in-memory fault fs just tracks memcpy throughput.
# RegionLPHash (build + canonical hash of a fresh region LP) gates
# allocs/op against an absolute bound of 4 per op: its baseline is zero,
# where a ratio cannot bite, and every fresh verdict pays this path.
scripts/benchcompare.py BENCH_results.json "${TMP}/bench.json" \
  --guard '/exact$|VerdictCacheHit|VerdictCacheHitEphemeral|SweepGrid|StreamIngest|JournalAppend' 1.2 \
  --guard-ns 'VerdictCacheHit$' 1.2 \
  --max-allocs 'RegionLPHash/' 4
