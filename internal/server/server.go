// Package server is the serving layer over the PTM core: a persistent
// key/value service in the shape of the paper's capstone experiment
// (§V, memcached under memaslap load), but run as a real service
// rather than a closed-loop microbenchmark.
//
// The package has four parts:
//
//   - Store (this file) — the persistent state: a byte-string KV table
//     (kvstore.KV over the transactional hash index) on a PTM heap,
//     with a media-image file so the simulated NVM survives process
//     restarts. Opening an existing image rebuilds the memory system
//     around the saved media bytes and runs core.Reopen recovery,
//     exactly what a persistent-memory service does after a crash.
//   - Executor (executor.go) — sharded transaction execution with
//     commit coalescing: per-shard bounded request queues feed worker
//     threads that group adjacent writes into one transaction, bounded
//     by batch size and a virtual-time window, with per-request
//     deadlines and load shedding for graceful degradation. Every
//     finished batch leaves one completion record that the stats, the
//     tracer (trace.go) and the flight ring (flight.go) consume.
//   - Snapshot (snapshot.go) — the one point-in-time view of all of
//     it, rendered as memcached stats, Prometheus text (telemetry.go)
//     and JSON.
//   - Server (tcp.go) — a TCP frontend speaking a memcached text
//     protocol subset (get/set/delete/incr/stats/quit) with graceful
//     drain on shutdown.
//
// The deterministic open-loop companion lives in server/loadsim: it
// drives the same Executor entirely in virtual time and emits
// reproducible p50/p90/p99 service-latency curves.
//
// See docs/SERVING.md for the protocol subset, the batching and
// recovery design, and a latency-curve walkthrough.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/membus"
	"goptm/internal/memdev"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/stats"
	"goptm/internal/workload/kvstore"
)

// kvRootSlot is the heap root slot holding the KV index table.
const kvRootSlot = 0

// StoreConfig parameterizes a Store. The zero value selects a
// redo-logged ADR machine with 4 shards — the configuration the
// paper's serving experiment uses.
type StoreConfig struct {
	Algo    core.Algo
	Domain  durability.Domain
	Shards  int    // executor shards; the machine gets Shards+1 threads
	Heap    uint64 // persistent heap words; 0 selects 1<<21 (16 MiB)
	Buckets int    // hash index buckets (power of two); 0 selects 1<<14
	// MaxLogEntries bounds one transaction's log; 0 derives a bound
	// from MaxValueBytes and the largest batch the executor may form.
	MaxLogEntries int
	// MaxValueBytes caps one value; 0 selects 8 KiB. The protocol layer
	// rejects larger sets so a batch can never overflow the redo log.
	MaxValueBytes int
	// MaxBatch is the largest write batch the executor will coalesce
	// into one transaction (used to size the log); 0 selects 8.
	MaxBatch int
	// Lockstep runs the machine under the deterministic scheduler
	// (loadsim sets it; the TCP server leaves it off so executor
	// shards run concurrently on host cores).
	Lockstep bool
	// UnsafeDomain suppresses the NoReserve→ADR promotion below, so a
	// store can run on a domain with no durable commit point. Only the
	// soak harness's gate self-test sets it: the point is to prove the
	// durable-linearizability oracle catches the resulting acked-write
	// loss.
	UnsafeDomain bool

	Recorder *obs.Recorder
	Metrics  *metrics.Registry
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Domain == durability.NoReserve && !c.UnsafeDomain {
		// A serving store needs a durable commit point; under NoReserve
		// the WPQ — and any commit marker waiting in it — evaporates at
		// power failure. The zero value therefore means ADR, the
		// weakest domain the paper treats as a persistence platform.
		c.Domain = durability.ADR
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Heap == 0 {
		c.Heap = 1 << 21
	}
	if c.Buckets == 0 {
		c.Buckets = 1 << 14
	}
	if c.MaxValueBytes == 0 {
		c.MaxValueBytes = 8 << 10
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxLogEntries == 0 {
		// One set writes the item header, key, and value words plus a
		// handful of index words; a batch multiplies that. Headroom
		// doubles the bound so incr reallocation and index chains fit.
		perSet := 4 + 32 + c.MaxValueBytes/8 + 16
		c.MaxLogEntries = 2 * c.MaxBatch * perSet
	}
	return c
}

// coreConfig maps a StoreConfig onto the machine configuration.
func (c StoreConfig) coreConfig() core.Config {
	return core.Config{
		Algo:          c.Algo,
		Medium:        core.MediumNVM,
		Domain:        c.Domain,
		Threads:       c.Shards + 1, // +1: setup/generator/admin thread 0
		HeapWords:     c.Heap,
		MaxLogEntries: c.MaxLogEntries,
		Lockstep:      c.Lockstep,
		Recorder:      c.Recorder,
		Metrics:       c.Metrics,
	}
}

// Store is the persistent state of the service: a PTM machine whose
// heap holds one byte-string KV table, plus the bookkeeping to save
// and reopen the simulated NVM's media image across process restarts.
type Store struct {
	cfg StoreConfig
	tm  *core.TM
	kv  kvstore.KV

	// gen is the image generation this store's media extends; SaveImage
	// stamps gen+1 into the file and bumps it on success. The write-
	// ahead journal is bound to a generation so a stale journal can
	// never be replayed over the wrong base image.
	gen     uint64
	wal     *journal
	walPath string

	// Recovered reports whether this store was reopened from an image
	// (true) or freshly formatted (false); Recovery holds the
	// post-crash recovery report in the former case. WALBatches counts
	// journal batches replayed on top of the image during open.
	Recovered  bool
	Recovery   core.RecoveryReport
	WALBatches int

	// flushLat records the host-time cost of each journal flush; the
	// telemetry endpoint exposes it as the journal-flush summary.
	flushMu  sync.Mutex
	flushLat stats.Histogram
}

// Open formats a fresh store: a new machine, an empty KV table
// published in the heap root.
func Open(cfg StoreConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	tm, err := core.New(cfg.coreConfig())
	if err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, tm: tm}
	th := tm.Thread(0)
	th.Atomic(func(tx *core.Tx) {
		st.kv = kvstore.CreateKV(tx, cfg.Buckets)
	})
	tm.SetRoot(th, kvRootSlot, st.kv.Table())
	th.Detach()
	return st, nil
}

// TM exposes the machine.
func (st *Store) TM() *core.TM { return st.tm }

// KV exposes the persistent table.
func (st *Store) KV() kvstore.KV { return st.kv }

// Config returns the store's configuration (after defaulting).
func (st *Store) Config() StoreConfig { return st.cfg }

// Crash simulates a power failure at the machine's current virtual
// time: the durability domain's policy resolves the WPQ and caches
// into the final media image. All threads must be detached. The store
// is unusable afterwards except for SaveImage; reopen via OpenImage.
func (st *Store) Crash(vt int64) {
	st.tm.Crash(vt)
}

// The image file is: magic, a JSON header with the store geometry
// (so a restart needs no flag agreement), then the raw NVM media
// image, one little-endian uint64 per word. Version 2 added the body
// checksum and the generation; version-1 images are rejected as
// corrupt rather than loaded without verification.
var imageMagic = [8]byte{'P', 'T', 'M', 'K', 'V', 'I', 'M', '2'}

// ErrCorruptImage tags image files that fail structural or checksum
// validation — a torn save, a truncated copy, bit rot. OpenOrRecover
// refuses to load such a file (and refuses to silently reformat over
// it); test with errors.Is.
var ErrCorruptImage = errors.New("server: corrupt image")

// imageHeader is the persisted store geometry.
type imageHeader struct {
	Algo          int    `json:"algo"`
	Domain        int    `json:"domain"`
	Shards        int    `json:"shards"`
	Heap          uint64 `json:"heap_words"`
	Buckets       int    `json:"buckets"`
	MaxLogEntries int    `json:"max_log_entries"`
	MaxValueBytes int    `json:"max_value_bytes"`
	MaxBatch      int    `json:"max_batch"`
	NVMWords      uint64 `json:"nvm_words"`
	// Generation counts image saves; the write-ahead journal names the
	// generation it extends.
	Generation uint64 `json:"generation"`
	// BodyFNV is the FNV-1a checksum of the raw media bytes that
	// follow the header, so a torn or bit-rotted body is detected
	// before recovery runs over garbage.
	BodyFNV uint64 `json:"body_fnv"`
}

// SaveImage writes the NVM media image and the store geometry to
// path. Call it only on a quiescent machine whose media image is
// final — after Crash (power-failure semantics; recovery will run on
// reopen) or after Quiesce on the bus (clean shutdown).
func (st *Store) SaveImage(path string) error {
	dev := st.tm.Bus().Device()
	nvm := dev.NVMWords()
	// First pass: checksum the media body (the header carries it, and
	// the header is written first).
	var scratch [8]byte
	sum := uint64(fnvOffset64)
	for a := memdev.Addr(0); a < memdev.Addr(nvm); a++ {
		binary.LittleEndian.PutUint64(scratch[:], dev.MediaLoad(a))
		sum = fnv64(sum, scratch[:])
	}
	hdr, err := json.Marshal(imageHeader{
		Algo:          int(st.cfg.Algo),
		Domain:        int(st.cfg.Domain),
		Shards:        st.cfg.Shards,
		Heap:          st.cfg.Heap,
		Buckets:       st.cfg.Buckets,
		MaxLogEntries: st.cfg.MaxLogEntries,
		MaxValueBytes: st.cfg.MaxValueBytes,
		MaxBatch:      st.cfg.MaxBatch,
		NVMWords:      nvm,
		Generation:    st.gen + 1,
		BodyFNV:       sum,
	})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.Write(imageMagic[:])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(hdr)))
	w.Write(scratch[:4])
	w.Write(hdr)
	for a := memdev.Addr(0); a < memdev.Addr(nvm); a++ {
		binary.LittleEndian.PutUint64(scratch[:], dev.MediaLoad(a))
		w.Write(scratch[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// Flush file contents to stable storage before the rename: renaming
	// a still-dirty file can expose a new name pointing at unwritten
	// blocks after a power loss.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The rename makes image replacement atomic: a crash mid-save
	// leaves the previous image intact.
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The rename itself is a directory-entry update, and on a real
	// filesystem it is not durable until the *directory* is synced: a
	// crash in the window after rename() returns but before the
	// directory's metadata reaches the journal can roll the entry back
	// to the old image — or, for a first save, to no image at all.
	// POSIX guarantees nothing here without an explicit fsync of the
	// directory fd.
	if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
		if serr := dir.Sync(); serr != nil {
			dir.Close()
			return serr
		}
		dir.Close()
	}
	st.gen++
	return nil
}

// OpenImage rebuilds a store from an image file: a fresh memory
// system with the saved media bytes installed, then core.Reopen runs
// crash recovery (redo replay / undo rollback / allocator GC) before
// the KV root is re-attached.
func OpenImage(path string) (*Store, error) {
	return openImage(path, "")
}

// openImage is OpenImage plus optional write-ahead-journal replay:
// with a non-empty walPath, valid journal batches bound to the image's
// generation are applied on top of the media bytes before recovery
// runs — the restart path after a host process kill.
func openImage(path, walPath string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 12 || [8]byte(data[:8]) != imageMagic {
		return nil, fmt.Errorf("%w: %s is not a ptmserve v2 image", ErrCorruptImage, path)
	}
	hlen := int(binary.LittleEndian.Uint32(data[8:12]))
	if hlen < 0 || len(data) < 12+hlen {
		return nil, fmt.Errorf("%w: truncated header in %s", ErrCorruptImage, path)
	}
	var hdr imageHeader
	if err := json.Unmarshal(data[12:12+hlen], &hdr); err != nil {
		return nil, fmt.Errorf("%w: bad header in %s: %v", ErrCorruptImage, path, err)
	}
	cfg := StoreConfig{
		Algo:          core.Algo(hdr.Algo),
		Domain:        durability.Domain(hdr.Domain),
		Shards:        hdr.Shards,
		Heap:          hdr.Heap,
		Buckets:       hdr.Buckets,
		MaxLogEntries: hdr.MaxLogEntries,
		MaxValueBytes: hdr.MaxValueBytes,
		MaxBatch:      hdr.MaxBatch,
	}.withDefaults()
	body := data[12+hlen:]
	if uint64(len(body)) != hdr.NVMWords*8 {
		return nil, fmt.Errorf("%w: body is %d bytes, want %d", ErrCorruptImage, len(body), hdr.NVMWords*8)
	}
	if sum := fnv64(fnvOffset64, body); sum != hdr.BodyFNV {
		return nil, fmt.Errorf("%w: body checksum %#x, header says %#x", ErrCorruptImage, sum, hdr.BodyFNV)
	}

	ccfg := cfg.coreConfig()
	bus, err := core.NewBus(ccfg)
	if err != nil {
		return nil, err
	}
	dev := bus.Device()
	if dev.NVMWords() != hdr.NVMWords {
		return nil, fmt.Errorf("%w: NVM geometry %d words does not match config-derived %d", ErrCorruptImage, hdr.NVMWords, dev.NVMWords())
	}
	var payload [memdev.WordsPerLine]uint64
	for ln := uint64(0); ln < hdr.NVMWords/memdev.WordsPerLine; ln++ {
		base := ln * memdev.WordsPerLine * 8
		for w := range payload {
			payload[w] = binary.LittleEndian.Uint64(body[base+uint64(w)*8:])
		}
		dev.MediaWriteLine(ln, payload)
	}
	walBatches := 0
	if walPath != "" {
		walBatches, err = replayJournal(walPath, hdr.Generation, func(ln uint64, payload [memdev.WordsPerLine]uint64) {
			dev.MediaWriteLine(ln, payload)
		})
		if err != nil {
			return nil, err
		}
	}

	tm, rep, err := core.Reopen(bus, ccfg)
	if err != nil {
		return nil, fmt.Errorf("server: recovery failed: %w", err)
	}
	st := &Store{cfg: cfg, tm: tm, gen: hdr.Generation, Recovered: true, Recovery: rep, WALBatches: walBatches}
	th := tm.Thread(0)
	root := tm.Root(th, kvRootSlot)
	th.Detach()
	if root == 0 {
		return nil, fmt.Errorf("server: image has no KV root")
	}
	st.kv = kvstore.OpenKV(root)
	return st, nil
}

// OpenOrRecover opens path if it exists, else formats a fresh store
// with cfg — the single entry point ptmserve uses at startup. A file
// that exists but fails validation is an error, never silently
// reformatted (errors.Is(err, ErrCorruptImage) distinguishes it), and
// so is a path that cannot be examined.
func OpenOrRecover(path string, cfg StoreConfig) (*Store, error) {
	if path != "" {
		exists, err := imageExists(path)
		if err != nil {
			return nil, err
		}
		if exists {
			return OpenImage(path)
		}
	}
	return Open(cfg)
}

// imageExists reports whether an image file is present at path. Only a
// definite "no such file" counts as absent: any other stat failure is
// returned, so a path that could not be examined is never taken for a
// fresh start and formatted over.
func imageExists(path string) (bool, error) {
	_, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("server: %w", err)
	}
	return true, nil
}

// WALPath names the write-ahead journal that extends the image at
// path.
func WALPath(path string) string { return path + ".wal" }

// OpenDurable opens the store whose acknowledged writes survive a kill
// of the *host process*, not just a simulated power failure: the image
// (plus any journal bound to its generation) is loaded if present,
// else a fresh store is formatted and a base image saved immediately
// — a journal needs a base to extend. The media write-ahead journal is
// then attached; pair with ExecConfig.DurableAck so every response is
// backed by journaled media before it is sent.
func OpenDurable(path string, cfg StoreConfig) (*Store, error) {
	if path == "" {
		return nil, fmt.Errorf("server: a durable store needs an image path")
	}
	exists, err := imageExists(path)
	if err != nil {
		return nil, err
	}
	var st *Store
	if exists {
		st, err = openImage(path, WALPath(path))
		if err != nil {
			return nil, err
		}
	} else {
		st, err = Open(cfg)
		if err != nil {
			return nil, err
		}
		// Quiesce materializes the formatting transaction's pending WPQ
		// entries so the base image is complete (equivalent to the media
		// state an ADR crash would leave, without killing the machine).
		st.Bus().Quiesce()
		if err := st.SaveImage(path); err != nil {
			return nil, err
		}
	}
	if err := st.StartJournal(WALPath(path)); err != nil {
		return nil, err
	}
	return st, nil
}

// StartJournal attaches a media write-ahead journal at path (creating
// it, or truncating a torn tail if it already extends this store's
// generation) and wires it to the device's media observer. Call before
// serving traffic.
func (st *Store) StartJournal(path string) error {
	j, err := openJournal(path, st.gen)
	if err != nil {
		return err
	}
	st.wal, st.walPath = j, path
	st.tm.Bus().Device().SetMediaObserver(j.record)
	return nil
}

// FinishJournal detaches, closes, and removes the journal. Call only
// after a successful SaveImage: the save bumped the generation, so
// even a journal file that survives a failed remove would be ignored
// as stale on the next open.
func (st *Store) FinishJournal() {
	if st.wal == nil {
		return
	}
	st.tm.Bus().Device().SetMediaObserver(nil)
	st.wal.close()
	os.Remove(st.walPath)
	st.wal = nil
}

// The durable-ack barrier has two halves, run in this order by the
// executor before any response of a batch is acknowledged: DrainMedia
// forces every pending WPQ entry onto simulated media, FlushJournal
// pushes the resulting journal batch to the host file. An acked write
// is then reconstructible from image + journal even if the process is
// killed the next instant.

// DrainMedia is the barrier's first half: force every pending WPQ
// entry onto simulated media and advance the calling shard's clock to
// the last drain completion (the honest virtual-time cost of waiting).
func (st *Store) DrainMedia(th *core.Thread) {
	n, maxVT := st.tm.Bus().Device().DrainAll()
	if n > 0 {
		if now := th.Now(); maxVT > now {
			th.Compute(maxVT - now)
		}
	}
}

// FlushJournal is the barrier's second half: push the journal batch to
// the host file. The flush's host-time cost lands in the journal-flush
// histogram the telemetry endpoint exposes.
func (st *Store) FlushJournal() error {
	if st.wal == nil {
		return nil
	}
	start := time.Now()
	err := st.wal.flush()
	st.flushMu.Lock()
	st.flushLat.Record(time.Since(start).Nanoseconds())
	st.flushMu.Unlock()
	return err
}

// JournalFlushStats snapshots the journal-flush latency histogram.
func (st *Store) JournalFlushStats() stats.Histogram {
	var out stats.Histogram
	st.flushMu.Lock()
	out.Merge(&st.flushLat)
	st.flushMu.Unlock()
	return out
}

// Bus exposes the memory system (tests, quiesce on clean shutdown).
func (st *Store) Bus() *membus.Bus { return st.tm.Bus() }
