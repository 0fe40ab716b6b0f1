package engine

import (
	"sync/atomic"

	"repro/internal/core"
)

// VerdictStore is a persistent backing tier for the in-memory verdict
// cache. Keys are canonical LP hashes (core.LPHash), which stay valid
// across processes and versions where the in-memory (model, region) key
// does not; values are feasibility verdicts. Implementations must be
// safe for concurrent use; internal/perfdb provides the file-backed one
// counterpointd wires in.
// The interface is declared here (not in perfdb) so the engine stays
// free of storage dependencies.
type VerdictStore interface {
	// Get returns the stored verdict for key, if any.
	Get(key [32]byte) (verdict bool, ok bool)
	// Put records the verdict for key. Errors are the store's to surface
	// (the engine treats persistence as best-effort and keeps serving). A
	// put contradicting a stored verdict must keep the stored one and
	// fail; the engine counts that as a conflict, not a write error.
	Put(key [32]byte, verdict bool) error
}

// cacheStats counts engine cache activity. All counters are atomic; LRU
// eviction totals live in the caches themselves behind their mutexes.
type cacheStats struct {
	regionHits     atomic.Uint64
	regionMisses   atomic.Uint64
	verdictHits    atomic.Uint64
	verdictMisses  atomic.Uint64
	storeHits      atomic.Uint64
	storeErrors    atomic.Uint64
	storeConflicts atomic.Uint64
}

// CacheCounts is a point-in-time snapshot of the engine's cache
// telemetry, shaped for JSON (counterpointd's /stats endpoint).
type CacheCounts struct {
	// RegionHits / RegionMisses count region LRU lookups by sample
	// digest (a hit skips covariance and eigendecomposition);
	// RegionEvictions counts entries displaced by the LRU policy.
	RegionHits      uint64 `json:"region_hits"`
	RegionMisses    uint64 `json:"region_misses"`
	RegionEvictions uint64 `json:"region_evictions"`
	RegionEntries   int    `json:"region_entries"`
	// VerdictHits / VerdictMisses count verdict lookups by (model,
	// region), memory then store (a hit skips the solve entirely);
	// StoreHits counts the subset of hits served by the persistent store
	// after a memory miss, StoreErrors counts failed persistence writes,
	// and StoreConflicts counts fresh verdicts the store refused because
	// it holds the opposite verdict for the same LP hash (a solver bug or
	// a hash collision; nonzero warrants investigation).
	VerdictHits      uint64 `json:"verdict_hits"`
	VerdictMisses    uint64 `json:"verdict_misses"`
	VerdictEvictions uint64 `json:"verdict_evictions"`
	VerdictEntries   int    `json:"verdict_entries"`
	StoreHits        uint64 `json:"store_hits"`
	StoreErrors      uint64 `json:"store_errors"`
	StoreConflicts   uint64 `json:"store_conflicts"`
	// ModelEvictions / SessionEvictions count LRU displacement in the
	// restricted-model and shared-session caches.
	ModelEvictions   uint64 `json:"model_evictions"`
	SessionEvictions uint64 `json:"session_evictions"`
}

// CacheStats snapshots the engine's cache telemetry.
func (e *Engine) CacheStats() CacheCounts {
	c := CacheCounts{
		RegionHits:     e.caches.regionHits.Load(),
		RegionMisses:   e.caches.regionMisses.Load(),
		VerdictHits:    e.caches.verdictHits.Load(),
		VerdictMisses:  e.caches.verdictMisses.Load(),
		StoreHits:      e.caches.storeHits.Load(),
		StoreErrors:    e.caches.storeErrors.Load(),
		StoreConflicts: e.caches.storeConflicts.Load(),
	}
	e.regionMu.Lock()
	c.RegionEvictions = e.regions.Evictions()
	c.RegionEntries = e.regions.Len()
	e.regionMu.Unlock()
	e.verdictMu.Lock()
	c.VerdictEvictions = e.verdicts.Evictions()
	c.VerdictEntries = e.verdicts.Len()
	e.verdictMu.Unlock()
	e.mu.Lock()
	c.ModelEvictions = e.models.Evictions()
	e.mu.Unlock()
	e.sessMu.Lock()
	c.SessionEvictions = e.sessions.Evictions()
	e.sessMu.Unlock()
	return c
}

// cachedVerdict returns the in-memory verdict for k, if any.
func (e *Engine) cachedVerdict(k lpKey) (feasible, ok bool) {
	e.verdictMu.Lock()
	feasible, ok = e.verdicts.Get(k)
	e.verdictMu.Unlock()
	return feasible, ok
}

// storedVerdict returns the persistent store's verdict for LP hash h,
// promoting a hit into memory under k. The engine must have a store.
func (e *Engine) storedVerdict(k lpKey, h core.LPHash) (feasible, ok bool) {
	if feasible, ok = e.store.Get(h); ok {
		e.verdictMu.Lock()
		e.verdicts.Add(k, feasible)
		e.verdictMu.Unlock()
		e.caches.storeHits.Add(1)
	}
	return feasible, ok
}

// recordVerdict records a freshly solved verdict in memory under k and,
// when a store is attached, writes it through under the LP hash h. A
// failed put whose key the store holds with the opposite verdict is a
// conflict.
func (e *Engine) recordVerdict(k lpKey, h core.LPHash, feasible bool) {
	e.verdictMu.Lock()
	e.verdicts.Add(k, feasible)
	e.verdictMu.Unlock()
	if e.store != nil {
		if err := e.store.Put(h, feasible); err != nil {
			if stored, ok := e.store.Get(h); ok && stored != feasible {
				e.caches.storeConflicts.Add(1)
			} else {
				e.caches.storeErrors.Add(1)
			}
		}
	}
}
