#!/usr/bin/env bash
# Repository verification: build, vet, full test suite, and the
# concurrent runtime's tests under the race detector. The benchmark in
# perfbench/ is a separate module, so it is vetted (and, in the full
# run, tested) on its own.
#
# Usage: scripts/check.sh [-fast]
#   -fast  skip the full (slow) test suites; build + vet + race only
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "-fast" ]] && fast=1

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== (cd perfbench && go vet ./...)"
(cd perfbench && go vet ./...)

if [[ $fast -eq 0 ]]; then
  # The root suite includes the same-run performance gates: the PII
  # engine >= 3x its regex oracle at 0 allocs/op
  # (TestSessionExtractBeatsRegexOracle), the gated taxonomy
  # categorizer >= 5x its all-regex oracle on bulk-mix documents
  # (TestCategorizeBeatsRegexOracle), store-fed scoring >= 0.9x
  # in-memory (TestStoreFedScoringFloor), and ScanParallel >= 2x the
  # sequential scan on >= 4 cores (TestScanParallelSpeedup).
  echo "== go test ./..."
  go test ./...

  echo "== (cd perfbench && go test ./...)"
  (cd perfbench && go test ./...)
fi

# The concurrent runtime (worker pool, chaos harness, streaming
# scoring), the metrics core shared across its workers, the HTTP
# serving layer coalescing requests onto that runtime, the corpus
# store (concurrent segment reads under Scan/Lookup, crash-recovery
# reopen), the model lifecycle (registry commits racing opens,
# hot-swaps racing traffic), and the annotators (one Categorizer and
# the PII extractors shared across goroutines over pooled scan state)
# must be race-clean, not just correct.
echo "== go test -race ./internal/resilience/... ./internal/core/... ./internal/obs/... ./internal/serve/... ./internal/corpus/... ./internal/registry/... ./internal/lifecycle/... ./internal/taxonomy/ ./internal/pii/..."
go test -race ./internal/resilience/... ./internal/core/... ./internal/obs/... ./internal/serve/... ./internal/corpus/... ./internal/registry/... ./internal/lifecycle/... ./internal/taxonomy/ ./internal/pii/...

# Parallel-scan race certification: scans at 16 workers racing a live
# appender, and point reads racing Close, repeated under the race
# detector — the committed-extent bounding and reader-refcount
# (mapping lifetime) invariants of the store's mmap read path.
echo "== store parallel-scan race step"
go test -race -count=2 -run 'TestScanParallelWhileAppend|TestScanWhileAppend|TestDocConcurrentWithClose' ./internal/corpus/store/

# Allocation-regression gates: the scoring hot path (tokenize,
# featurize, PII clean path, pooled detector scoring) and the obs
# metric handles it records into must stay allocation-free, and the
# taxonomy categorizer may allocate only its result. These run under
# the race detector above too, but the race detector changes the
# allocator, so assert them in a plain run.
echo "== alloc-regression tests"
go test -run 'Allocs' ./internal/tokenize/ ./internal/features/ ./internal/pii/ ./internal/core/ ./internal/obs/ ./internal/taxonomy/

if [[ $fast -eq 0 ]]; then
  # Differential fuzz smoke: the one-pass PII engine must stay
  # byte-identical to the legacy regex cascade (its in-tree oracle).
  # A short guided run on top of the committed corpus catches gate or
  # automaton soundness bugs before they need a long campaign.
  echo "== pii differential fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzExtractPrefilterEquivalence$' -fuzztime 10s ./internal/pii/

  # Taxonomy gate differential fuzz smoke: the gated categorizer must
  # return the all-regex oracle's label on every input (a divergence is
  # a gate that is not a necessary condition for its cue regex), and
  # the shared literal scanner must agree with a strings.Contains oracle
  # on its folded view.
  echo "== taxonomy gate and scanner fuzz smokes (-fuzztime=10s each)"
  go test -run '^$' -fuzz '^FuzzCategorizeGateEquivalence$' -fuzztime 10s ./internal/taxonomy/
  go test -run '^$' -fuzz '^FuzzTeddyScan$' -fuzztime 10s ./internal/pii/engine/

  # Corpus-store differential fuzz smokes: the segment record decoder
  # must reject every non-canonical framing and round-trip every
  # accepted payload byte-identically, and the posting bitmaps must
  # agree with a naive in-memory oracle. One -fuzz target per
  # invocation (go test rejects multi-target fuzz runs).
  echo "== store fuzz smokes (-fuzztime=10s each)"
  go test -run '^$' -fuzz '^FuzzSegmentDecode$' -fuzztime 10s ./internal/corpus/store/
  go test -run '^$' -fuzz '^FuzzPostingIterator$' -fuzztime 10s ./internal/corpus/store/

  # Registry manifest fuzz smoke: every accepted manifest must
  # re-encode to its canonical byte form (decode∘encode identity, the
  # FuzzSegmentDecode contract for the model registry's root state).
  echo "== registry manifest fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzRegistryManifest$' -fuzztime 10s ./internal/registry/

  # Benchmark smoke: every benchmark must still run (one iteration, no
  # timing claims) so bench rot is caught here, not at release time.
  echo "== benchmark smoke (-benchtime=1x)"
  go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

  # Chaos certification against a live harassd: a deterministic seeded
  # fault plan (shard panics, stalls, latency spikes) must lose zero
  # admitted requests, restart the faulted shard, keep /healthz green
  # and export its request and per-shard queue metrics, and still
  # drain cleanly on SIGTERM.
  echo "== chaos-serve certification"
  scripts/chaos_serve.sh

  # Hot-swap chaos certification: the in-process swap storm under
  # -race (zero lost requests, every response scored wholly by one
  # model generation — golden equality against both pure-generation
  # runs), then a live harassd -registry swap storm under a fixed
  # 320-request load that must lose nothing, be served by both
  # generations, and drain cleanly; on the same fleet, shadow scoring
  # must keep >= 90% of the no-shadow throughput.
  echo "== hot-swap chaos certification + shadow-cost gate"
  scripts/chaos_swap.sh
fi

echo "OK"
