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
//     finished batch leaves one completion record that the stats and
//     the flight ring (flight.go) consume.
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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/membus"
	"goptm/internal/memdev"
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

	Recorder *obs.Recorder
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Domain == durability.NoReserve {
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

// Open formats a fresh store in memory, with no file behind it: a new
// machine, an empty KV table published in the heap root. OpenDurable
// is the store kept on a file.
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
// is unusable afterwards except for SaveImage; reopen via OpenDurable.
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
// validation — a torn save, a truncated copy, bit rot. OpenDurable
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

// imagePage is the span imageSum examines at once.
const imagePage = 4096

var (
	zeroPage [imagePage]byte
	// zeroPageMul is what FNV-1a over one all-zero page multiplies its
	// state by: a zero byte leaves the xor step a no-op, so each one is
	// just h *= prime.
	zeroPageMul = func() uint64 {
		m := uint64(1)
		for range imagePage {
			m *= fnvPrime64
		}
		return m
	}()
)

// imageSum is fnv64(h, b), but an all-zero page costs one multiply
// instead of 4096: most of a store's media is never written.
func imageSum(h uint64, b []byte) uint64 {
	for ; len(b) >= imagePage; b = b[imagePage:] {
		if bytes.Equal(b[:imagePage], zeroPage[:]) {
			h *= zeroPageMul
		} else {
			h = fnv64(h, b[:imagePage])
		}
	}
	return fnv64(h, b)
}

// imageChunkWords is how many media words SaveImage and OpenDurable
// move per locked device copy (256 KiB of image body).
const imageChunkWords = 32 << 10

// SaveImage writes the NVM media image and the store geometry to
// path. Call it only on a quiescent machine whose media image is
// final — after Crash (power-failure semantics; recovery will run on
// reopen) or after the bus drained every pending write (clean
// shutdown).
func (st *Store) SaveImage(path string) error {
	dev := st.tm.Bus().Device()
	nvm := dev.NVMWords()
	words := make([]uint64, imageChunkWords)
	buf := make([]byte, 0, 8*imageChunkWords)
	// chunk returns the media chunk that starts at word a, encoded
	// little-endian in buf, which the next call reuses.
	chunk := func(a uint64) []byte {
		w := words[:min(imageChunkWords, nvm-a)]
		dev.ReadMedia(memdev.Addr(a), w)
		buf = buf[:0]
		for _, v := range w {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		return buf
	}
	// First pass: checksum the media body (the header carries it, and
	// the header is written first).
	sum := uint64(fnvOffset64)
	for a := uint64(0); a < nvm; a += imageChunkWords {
		sum = imageSum(sum, chunk(a))
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
	head := make([]byte, 0, 12+len(hdr))
	head = append(head, imageMagic[:]...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(hdr)))
	if _, err := f.Write(append(head, hdr...)); err != nil {
		f.Close()
		return err
	}
	for a := uint64(0); a < nvm; a += imageChunkWords {
		if _, err := f.Write(chunk(a)); err != nil {
			f.Close()
			return err
		}
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

// OpenDurable opens the store kept in the image file at path, whose
// acknowledged writes survive a kill of the *host process*, not just a
// simulated power failure, in every durability domain. An executor on
// the returned store journals every write before it acknowledges it.
//
// An existing image is read and checked — a file that fails any check
// is an error wrapping ErrCorruptImage, never formatted over — and its
// saved media bytes are installed in a fresh memory system; load then
// runs core.Reopen crash recovery (redo replay / undo rollback /
// allocator GC) and replays the journal bound to the image's
// generation. The image's geometry wins: cfg is used only to format.
//
// A missing image is made the way a restart would find it, since the
// journal needs a base image to extend: a fresh store is formatted
// with cfg, power-failed and saved, and the saved media is loaded by
// the same path as a restart's (load) — straight from the device that
// wrote the file, which holds exactly its bytes.
func OpenDurable(path string, cfg StoreConfig) (*Store, error) {
	if path == "" {
		return nil, fmt.Errorf("server: a durable store needs an image path")
	}
	exists, err := imageExists(path)
	if err != nil {
		return nil, err
	}
	if !exists {
		fresh, err := Open(cfg)
		if err != nil {
			return nil, err
		}
		// The failure comes after every drain the format issued, so the
		// domain's policy — whatever the domain — leaves the formatted
		// table on media. Only the bus fails: the formatting TM is
		// discarded, so its volatile orec table is not worth resetting.
		fresh.Bus().Crash(math.MaxInt64)
		if err := fresh.SaveImage(path); err != nil {
			return nil, err
		}
		st, err := load(fresh.Bus(), fresh.cfg, fresh.gen, WALPath(path))
		if err != nil {
			return nil, err
		}
		st.Recovered = false
		return st, nil
	}

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
	cfg = StoreConfig{
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
	if sum := imageSum(fnvOffset64, body); sum != hdr.BodyFNV {
		return nil, fmt.Errorf("%w: body checksum %#x, header says %#x", ErrCorruptImage, sum, hdr.BodyFNV)
	}

	bus, err := core.NewBus(cfg.coreConfig())
	if err != nil {
		return nil, err
	}
	dev := bus.Device()
	if dev.NVMWords() != hdr.NVMWords {
		return nil, fmt.Errorf("%w: NVM geometry %d words does not match config-derived %d", ErrCorruptImage, hdr.NVMWords, dev.NVMWords())
	}
	words := make([]uint64, imageChunkWords)
	for a := uint64(0); a < hdr.NVMWords; a += imageChunkWords {
		w := words[:min(imageChunkWords, hdr.NVMWords-a)]
		for i := range w {
			w[i] = binary.LittleEndian.Uint64(body[(a+uint64(i))*8:])
		}
		dev.WriteMedia(memdev.Addr(a), w)
	}
	return load(bus, cfg, hdr.Generation, WALPath(path))
}

// load is the one path every durable store comes up by, whether its
// media image was read from a file or left on the device by the crash
// that saved it: core.Reopen recovery over bus, whose media holds the
// image of generation gen; the KV root re-attached; and the journal at
// walPath bound to gen replayed on top and kept open for appending
// after its valid prefix.
func load(bus *membus.Bus, cfg StoreConfig, gen uint64, walPath string) (*Store, error) {
	tm, rep, err := core.Reopen(bus, cfg.coreConfig())
	if err != nil {
		return nil, fmt.Errorf("server: recovery failed: %w", err)
	}
	st := &Store{cfg: cfg, tm: tm, gen: gen, Recovered: true, Recovery: rep}
	th := tm.Thread(0)
	defer th.Detach()
	root := tm.Root(th, kvRootSlot)
	if root == 0 {
		return nil, fmt.Errorf("server: image has no KV root")
	}
	st.kv = kvstore.OpenKV(root)
	wal, batches, err := openJournal(walPath, st.gen)
	if err != nil {
		return nil, err
	}
	if err := st.replay(th, batches); err != nil {
		wal.close()
		return nil, fmt.Errorf("%w (replaying %s)", err, walPath)
	}
	st.wal, st.walPath, st.WALBatches = wal, walPath, len(batches)
	return st, nil
}

// FinishJournal closes and removes the journal. Call only after a
// successful SaveImage: the save bumped the generation, so even a
// journal file that survives a failed remove would be ignored as stale
// on the next open.
func (st *Store) FinishJournal() {
	if st.wal == nil {
		return
	}
	st.wal.close()
	os.Remove(st.walPath)
	st.wal = nil
}

// DrainMedia forces every pending WPQ entry onto simulated media and
// advances th's clock to the last drain completion. No server path
// calls it: the bench/layers replay probe times it, and it retires with
// that probe's replay.drain_share and store.drain_media_host_us when
// the benchmark is next revised (ROADMAP item 2).
func (st *Store) DrainMedia(th *core.Thread) {
	if n, maxVT := st.tm.Bus().Device().DrainAll(); n > 0 {
		if now := th.Now(); maxVT > now {
			th.Compute(maxVT - now)
		}
	}
}

// FlushJournal is the durable-ack barrier's last step: the executor of
// a journaled store appends a batch's committed writes to the journal,
// then pushes the journal batch to the host file before any member is
// acknowledged. An acked write is then reconstructible from image +
// journal even if the process is killed the next instant. The flush's
// host-time cost lands in the journal-flush histogram the telemetry
// endpoint exposes.
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
