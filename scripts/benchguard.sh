#!/usr/bin/env bash
# CI bench smoke + regression guard: runs the solver benchmarks briefly,
# then fails against the committed BENCH_results.json baseline if
#   - any exact-path benchmark's allocs/op regressed by more than 20%, or
#   - the /evaluate body decode benchmark's allocs/op regressed by more
#     than 20%, or
#   - a constraint-deduction or model-setup benchmark's allocs/op
#     regressed by more than 20%, or
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
GUARDBENCH="${GUARDBENCH:-VerdictCacheHit|VerdictCacheHitEphemeral|SweepGrid|StreamIngest|JournalAppend|CorpusDecode$|BaseCorpus|Fig9bDeduction|ModelSetup|RegionBuild}"
BENCHTIME="${BENCHTIME:-50x}"
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

{
  go test -run=NONE -bench "${BENCH}" -benchmem -benchtime="${BENCHTIME}" -timeout 30m .
  go test -run=NONE -bench "${GUARDBENCH}" -benchmem -timeout 30m . ./internal/counters ./internal/engine ./internal/jobs ./internal/jobstore ./internal/stats ./internal/sweep
} | tee "${TMP}/bench.txt"
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -f scripts/benchjson.awk "${TMP}/bench.txt" > "${TMP}/bench.json"

# SweepGrid and SweepGridBatched gate allocs/op only: their allocation
# counts balloon if the behaviour-class planner, the pooled per-class
# corpus materialisation, or the verdict-cache dedup regresses, while
# their wall time tracks math/big throughput on the runner. (The
# unanchored SweepGrid pattern matches both deliberately.)
# StreamIngest gates allocs/op only, on both variants: per-observation
# allocation on the live ingest path is the stream tier's memory story,
# while its wall time — dominated by the per-ingest region build (fresh)
# or the sample digest (warm) — is too noisy on the runner to gate at a
# 20% budget.
# VerdictCacheHitEphemeral gates allocs/op only: it is the verdict-cache
# hit path of every service request (sample digest, region-cache and
# verdict-cache hits, no region or LP built), so an allocation there is
# paid per observation served, while its wall time is as noisy as
# StreamIngest's. The ns/op gate is anchored so it keeps covering exactly
# VerdictCacheHit.
# JournalAppend gates allocs/op only: the per-event append is the hot
# path of every journaled job (one frame per committed cell/node), so
# allocation creep there multiplies across whole sweeps, while its wall
# time on the in-memory fault fs just tracks memcpy throughput.
# CorpusDecode gates allocs/op only: it decodes an /evaluate body of 16
# observations, and its allocations are a few per observation whatever
# the rows and columns (TestDecodeAllocsPerObservation), so growth means
# a per-row or per-value allocation crept back into the decoder. Its
# encoding/json reference, CorpusDecodeJSON, is not run.
# BaseCorpus gates allocs/op only: it simulates a sweep's default base
# corpus, and with flat cache tables and index-addressed counters a
# simulator allocates a few slices, not one per cache set or counted
# event, so growth means a per-set or per-access allocation crept back
# into the simulator. Its wall time depends on how many cores the runner
# gives the per-entry worker pool.
# Fig9bDeduction gates allocs/op only: it builds the discovered model over
# the Ret, L2TLB and Walk groups and deduces its constraints (elimination,
# membership LPs on integer-native rows, double description), so growth
# means per-signature or per-LP allocation crept into deduction. Since
# signatures, the elimination passes and the facet lift moved onto the
# int64 kernel (Walk 292418 -> about 5000 allocs/op), growth also means
# big.Rat work crept back in. The float-tier counts of the membership
# LPs are pinned by TestCatalogueConeLPsOnFloatTier instead. Its wall
# time tracks the runner like the other solver benchmarks'.
# ModelSetup gates allocs/op only, for the same reasons: it compiles m0,
# a3 and discovered, builds each over its own counters and deduces its
# constraints, which is what counterpointd pays before a catalogue
# model's first verdict.
# RegionBuild gates allocs/op only: it builds one confidence region
# (covariance, eigendecomposition, axes, half-widths) from a fresh
# request's samples and from a full-rank corpus, which every region-cache
# miss pays. With the covariance accumulated into pooled eigensolver
# scratch a build allocates only the region it returns, so growth means
# an intermediate matrix crept back in. Its wall time tracks the runner.
# RegionLPHash (build + canonical hash of a fresh region LP) gates
# allocs/op against an absolute bound of 4 per op: its baseline is zero,
# where a ratio cannot bite, and every fresh verdict pays this path.
scripts/benchcompare.py BENCH_results.json "${TMP}/bench.json" \
  --guard '/exact$|VerdictCacheHit|VerdictCacheHitEphemeral|SweepGrid|StreamIngest|JournalAppend|CorpusDecode$|BaseCorpus|Fig9bDeduction|ModelSetup|RegionBuild' 1.2 \
  --guard-ns 'VerdictCacheHit$' 1.2 \
  --max-allocs 'RegionLPHash/' 4
