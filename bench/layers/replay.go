package main

import (
	"fmt"
	"path/filepath"
	"time"

	"goptm/internal/core"
	"goptm/internal/server"

	"goptm/bench/loadgen"
)

// The replay walks the executor's batch loop by hand, on one thread of
// a durable store: what execBatch does for a batch of eight sets —
// one transaction, the media drain, the journal flush — with a span
// around each call, so the three shares of a durable batch are read
// off directly. Same keyspace and values as the kv workloads.
const (
	replayKeys    = 4096
	replayValue   = 64
	replayBatch   = 8
	replayBatches = 1500 // traced set batches (and as many untraced), then as many get batches
	replayChunk   = 100  // batches between switching the span recorder on and off
	singleOps     = 6000 // one-op transactions per kind
)

// stream is the fixed key sequence of the replay: an LCG, so every run
// touches the same keys in the same order.
type stream uint64

func (s *stream) next(n int) int {
	*s = *s*6364136223846793005 + 1442695040888963407
	return int(uint64(*s>>33) % uint64(n))
}

func replay(rep *report, tr *tracer, dir string) error {
	st, err := server.OpenDurable(filepath.Join(dir, "layers.img"), server.StoreConfig{Shards: 1})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	kv := st.KV()
	th := st.TM().Thread(1) // shard 0's thread, as the executor assigns it
	defer th.Detach()

	keys := make([][]byte, replayKeys)
	for k := range keys {
		keys[k] = []byte(loadgen.KeyName(k))
	}
	var val []byte
	var setErr error
	setBatch := func(pick func(i int) (k int, ver uint32)) {
		tr.begin("batch")
		tr.begin("core.Atomic(Set x8)")
		th.Atomic(func(tx *core.Tx) {
			for i := 0; i < replayBatch; i++ {
				k, ver := pick(i)
				val = loadgen.AppendValue(val[:0], k, ver, replayValue)
				if err := kv.Set(tx, keys[k], val, 0); err != nil {
					setErr = err
				}
			}
		})
		tr.end()
		tr.begin("Store.DrainMedia")
		st.DrainMedia(th)
		tr.end()
		tr.begin("Store.FlushJournal")
		if err := st.FlushJournal(); err != nil {
			setErr = err
		}
		tr.end()
		tr.end()
	}

	// Preload, untraced: steady state overwrites.
	tr.off = true
	for base := 0; base < replayKeys; base += replayBatch {
		setBatch(func(i int) (int, uint32) { return base + i, 1 })
	}

	// Chunks of batches alternate between recording spans and not; the
	// difference in host time is the span recorder's own cost.
	var s stream
	var bare, traced time.Duration
	tr.off = false
	tr.begin("replay")
	for b := 0; b < 2*replayBatches; b++ {
		tr.off = b/replayChunk%2 == 0
		start := time.Now()
		setBatch(func(i int) (int, uint32) { return s.next(replayKeys), uint32(b + 2) })
		if tr.off {
			bare += time.Since(start)
		} else {
			traced += time.Since(start)
		}
	}
	tr.off = false
	misses := 0
	for b := 0; b < replayBatches; b++ {
		tr.begin("core.Atomic(Get x8)")
		th.Atomic(func(tx *core.Tx) {
			for i := 0; i < replayBatch; i++ {
				if _, _, ok := kv.Get(tx, keys[s.next(replayKeys)]); !ok {
					misses++
				}
			}
		})
		tr.end()
	}
	tr.end()
	if setErr != nil {
		return fmt.Errorf("replay: %w", setErr)
	}
	if misses > 0 {
		return fmt.Errorf("replay: %d gets missed a preloaded key", misses)
	}

	dur := tr.totals()
	batch := float64(dur["batch"])
	rep.set("replay.txn_share", float64(dur["core.Atomic(Set x8)"])/batch, "ratio", replayBatches)
	rep.set("replay.drain_share", float64(dur["Store.DrainMedia"])/batch, "ratio", replayBatches)
	rep.set("replay.journal_share", float64(dur["Store.FlushJournal"])/batch, "ratio", replayBatches)
	rep.set("store.drain_media_host_us", float64(dur["Store.DrainMedia"])/1e3/replayBatches, "us", replayBatches)
	rep.set("trace.overhead_share", float64(traced-bare)/float64(bare), "ratio", replayBatches)

	// One operation per transaction: the kvstore layer's own cost, in
	// host time and in the virtual time the model charges.
	one := func(name string, op func(tx *core.Tx, k int)) {
		tr.begin(name)
		host, sim := time.Now(), th.Now()
		for i := 0; i < singleOps; i++ {
			k := s.next(replayKeys)
			th.Atomic(func(tx *core.Tx) { op(tx, k) })
		}
		hostNS, simNS := time.Since(host).Nanoseconds(), th.Now()-sim
		tr.end()
		rep.set(name+"_host_ns", float64(hostNS)/singleOps, "ns", singleOps)
		rep.set(name+"_sim_ns", float64(simNS)/singleOps, "sim-ns", singleOps)
	}
	one("kvstore.set", func(tx *core.Tx, k int) {
		val = loadgen.AppendValue(val[:0], k, 9, replayValue)
		if err := kv.Set(tx, keys[k], val, 0); err != nil {
			setErr = err
		}
	})
	one("kvstore.get", func(tx *core.Tx, k int) { kv.Get(tx, keys[k]) })
	if setErr != nil {
		return fmt.Errorf("replay: %w", setErr)
	}
	return nil
}
