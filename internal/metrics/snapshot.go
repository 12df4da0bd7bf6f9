package metrics

import (
	"fmt"
	"strings"
)

// Snapshot is the complete counter state of one simulated machine at
// the end of a run, flattened into one JSON-stable struct. The machine
// (core.TM) assembles it: the registry contributes the transaction and
// media counters, each component contributes its own section. Field
// names are the metrics-report schema, which cmd/ptmstat reads back:
// all fields are integers except the derived amplification ratios, so
// the JSON round trip is exact.
type Snapshot struct {
	// Transaction outcomes.
	Commits           int64 `json:"commits"`
	Aborts            int64 `json:"aborts"`
	AbortLockConflict int64 `json:"abort_lock_conflict"`
	AbortValidation   int64 `json:"abort_validation"`
	AbortCapacity     int64 `json:"abort_capacity"`
	AbortExplicit     int64 `json:"abort_explicit"`
	ReadOnlyTxns      int64 `json:"read_only_txns"`

	// Persistent log volume.
	LogEntries int64 `json:"log_entries"`
	LogBytes   int64 `json:"log_bytes"`

	// Device traffic as requested by the program (memdev).
	NVMLoads  int64 `json:"nvm_loads"`
	NVMStores int64 `json:"nvm_stores"`
	Flushes   int64 `json:"flushes"`

	// Media traffic at XPLine (256 B) granularity and the resulting
	// amplification: media bytes moved per byte requested.
	MediaWriteXPLines   int64   `json:"media_write_xplines"`
	MediaReadXPLines    int64   `json:"media_read_xplines"`
	XPBufWriteHits      int64   `json:"xpbuf_write_hits"`
	XPBufReadHits       int64   `json:"xpbuf_read_hits"`
	MediaBulkWriteLines int64   `json:"media_bulk_write_lines"`
	MediaBulkReadLines  int64   `json:"media_bulk_read_lines"`
	WriteAmp            float64 `json:"write_amp"`
	ReadAmp             float64 `json:"read_amp"`

	// WPQ pressure (wpq.Counters): accepts and stalls split by the
	// flush cause — explicit clwb, dirty L3 eviction, or a
	// write-combining buffer drain.
	WPQAccepts         int64 `json:"wpq_accepts"`
	WPQStallNS         int64 `json:"wpq_stall_ns"`
	WPQStallEvents     int64 `json:"wpq_stall_events"`
	WPQMaxOccupancy    int64 `json:"wpq_max_occupancy"`
	WPQCombinedHits    int64 `json:"wpq_combined_hits"`
	WPQAcceptsCLWB     int64 `json:"wpq_accepts_clwb"`
	WPQAcceptsEviction int64 `json:"wpq_accepts_eviction"`
	WPQAcceptsWCDrain  int64 `json:"wpq_accepts_wcdrain"`
	WPQStallNSCLWB     int64 `json:"wpq_stall_ns_clwb"`
	WPQStallNSEviction int64 `json:"wpq_stall_ns_eviction"`
	WPQStallNSWCDrain  int64 `json:"wpq_stall_ns_wcdrain"`
	NVMWriteBusyNS     int64 `json:"nvm_write_busy_ns"`
	NVMReadBusyNS      int64 `json:"nvm_read_busy_ns"`

	// CPU cache hierarchy (cachesim): hits per level plus the eviction
	// breakdown (L3 split clean/dirty; dirty L3 evictions are the
	// implicit writebacks that join the WPQ).
	CacheHitL1        int64 `json:"cache_hit_l1"`
	CacheHitL2        int64 `json:"cache_hit_l2"`
	CacheHitL3        int64 `json:"cache_hit_l3"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheEvictL1      int64 `json:"cache_evict_l1"`
	CacheEvictL2      int64 `json:"cache_evict_l2"`
	CacheEvictL3      int64 `json:"cache_evict_l3_clean"`
	CacheEvictL3Dirty int64 `json:"cache_evict_l3_dirty"`

	// Memory-Mode page cache (pagecache.Stats).
	PageHits         int64 `json:"page_hits"`
	PageMisses       int64 `json:"page_misses"`
	PageEvictions    int64 `json:"page_evictions"`
	PageWritebacks   int64 `json:"page_writebacks"`
	PagePrefetches   int64 `json:"page_prefetches"`
	PagePrefetchHits int64 `json:"page_prefetch_hits"`
	PageAsyncCleans  int64 `json:"page_async_cleans"`

	// Orec table contention.
	OrecCASFailures int64 `json:"orec_cas_failures"`

	// Virtual-time series (empty unless sampling was configured).
	Samples []Sample `json:"samples,omitempty"`
}

// FillRegistry copies the registry-owned counters and the time series
// into s and computes the amplification ratios from the device-traffic
// fields, which the caller must have filled first (NVMLoads/NVMStores
// come from memdev). Write amplification is media bytes written per
// byte stored; read amplification media bytes read per byte loaded.
func (s *Snapshot) FillRegistry(m *Registry) {
	if m == nil {
		return
	}
	s.Commits = m.Get(CtrCommits)
	s.Aborts = m.Get(CtrAborts)
	s.AbortLockConflict = m.Get(CtrAbortLockConflict)
	s.AbortValidation = m.Get(CtrAbortValidation)
	s.AbortCapacity = m.Get(CtrAbortCapacity)
	s.AbortExplicit = m.Get(CtrAbortExplicit)
	s.ReadOnlyTxns = m.Get(CtrReadOnlyTxns)
	s.LogEntries = m.Get(CtrLogEntries)
	s.LogBytes = m.Get(CtrLogBytes)
	s.MediaWriteXPLines = m.Get(CtrMediaWriteXPLines)
	s.MediaReadXPLines = m.Get(CtrMediaReadXPLines)
	s.XPBufWriteHits = m.Get(CtrXPBufWriteHits)
	s.XPBufReadHits = m.Get(CtrXPBufReadHits)
	s.MediaBulkWriteLines = m.Get(CtrMediaBulkWriteLines)
	s.MediaBulkReadLines = m.Get(CtrMediaBulkReadLines)
	s.Samples = m.Samples()
	if s.NVMStores > 0 {
		s.WriteAmp = float64(s.MediaWriteXPLines*XPLineBytes) / float64(s.NVMStores*WordBytes)
	}
	if s.NVMLoads > 0 {
		s.ReadAmp = float64(s.MediaReadXPLines*XPLineBytes) / float64(s.NVMLoads*WordBytes)
	}
}

// HitRate reports the fraction of cache accesses served at or above
// the L3 (i.e. not by memory).
func (s Snapshot) HitRate() float64 {
	total := s.CacheHitL1 + s.CacheHitL2 + s.CacheHitL3 + s.CacheMisses
	if total == 0 {
		return 0
	}
	return 1 - float64(s.CacheMisses)/float64(total)
}

// String renders a compact multi-line report of the machine-level
// counters, for debugging and the examples' verbose output.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "txns: %d commits, %d aborts\n", s.Commits, s.Aborts)
	if s.Aborts > 0 {
		fmt.Fprintf(&b, "aborts by reason: %d lock-conflict, %d validation, %d htm-capacity, %d explicit\n",
			s.AbortLockConflict, s.AbortValidation, s.AbortCapacity, s.AbortExplicit)
	}
	fmt.Fprintf(&b, "nvm:  %d stores, %d flushes accepted, %.2f ms accept-stall\n",
		s.NVMStores, s.Flushes, float64(s.WPQStallNS)/1e6)
	fmt.Fprintf(&b, "media busy: write %.2f ms, read %.2f ms\n",
		float64(s.NVMWriteBusyNS)/1e6, float64(s.NVMReadBusyNS)/1e6)
	fmt.Fprintf(&b, "cache: L1 %d, L2 %d, L3 %d, miss %d (%.1f%% hit)\n",
		s.CacheHitL1, s.CacheHitL2, s.CacheHitL3, s.CacheMisses, 100*s.HitRate())
	if s.PageHits+s.PageMisses > 0 {
		fmt.Fprintf(&b, "page cache: %d hits, %d misses, %d writebacks, %d prefetches (%d used), %d async cleans\n",
			s.PageHits, s.PageMisses, s.PageWritebacks,
			s.PagePrefetches, s.PagePrefetchHits, s.PageAsyncCleans)
	}
	return b.String()
}
