#!/usr/bin/env bash
# Records the performance baseline the trajectory tracks: runs the key
# feasibility/solver benchmarks with -benchmem and writes both the raw
# harness output (BENCH_results.txt) and a parsed JSON form
# (BENCH_results.json) at the repository root. When a previous
# BENCH_results.json exists, a before/after comparison (% delta per
# benchmark for ns/op and allocs/op) is written to BENCH_compare.txt.
#
# Usage:
#   scripts/bench.sh                 # default benchmark set, -count=1
#   BENCH='FeasibilityLP' scripts/bench.sh
#   COUNT=5 scripts/bench.sh         # repeat for variance estimation
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-FeasibilityLP|Fig9aFeasibility|VerdictCacheHit|SolveWorkspace|SolveFresh|CorpusSession|CorpusPerCall|ExploreSequential|ExploreParallel|SweepGrid|StreamIngest|JournalAppend}"
COUNT="${COUNT:-1}"
TXT=BENCH_results.txt
JSON=BENCH_results.json
COMPARE=BENCH_compare.txt

OLD_JSON=""
if [ -f "${JSON}" ]; then
  OLD_JSON="$(mktemp)"
  cp "${JSON}" "${OLD_JSON}"
fi

{
  echo "# go test -run=NONE -bench '${BENCH}' -benchmem -count=${COUNT}"
  echo "# recorded $(date -u +%Y-%m-%dT%H:%M:%SZ) at $(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  echo "# cores: $(nproc 2>/dev/null || echo unknown) (ExploreParallel vs ExploreSequential measures the frontier-parallel speedup; it needs >=2 cores to show one)"
  go test -run=NONE -bench "${BENCH}" -benchmem -count="${COUNT}" -timeout 60m . ./internal/...
} | tee "${TXT}"

# Parse "BenchmarkName-P  N  ns/op  B/op  allocs/op" lines into JSON.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -f scripts/benchjson.awk "${TXT}" > "${JSON}"

echo "wrote ${TXT} and ${JSON}"

# Before/after comparison against the previous recording.
if [ -n "${OLD_JSON}" ]; then
  scripts/benchcompare.py "${OLD_JSON}" "${JSON}" | tee "${COMPARE}"
  rm -f "${OLD_JSON}"
  echo "wrote ${COMPARE}"
fi
