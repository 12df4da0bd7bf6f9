package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"goptm/internal/core"
)

// The write-ahead journal closes the gap between the simulated and the
// host failure model. Inside the simulation an acked write is durable
// once its transaction commits in the store's durability domain — but
// the whole simulated NVM lives in this process's address space, and
// the image file is only rewritten on clean shutdown. A SIGKILL of the
// host process would therefore lose every write acked since the last
// image save, even though the *simulated* machine never failed.
//
// The journal is logical: it records the commands the executor
// acknowledged, not the media lines they wrote, so it works the same
// in every durability domain. After a batch's transaction commits, the
// executor appends one record per write that changed the table and
// Store.FlushJournal writes the frame to the host file before any
// member is acknowledged. Reopening loads the image, runs core.Reopen
// recovery, and re-executes the records through the KV table in file
// order. A simulated power failure is resolved by the domain, a host
// kill by the journal.
//
// Records are framed in batches, one per flush:
//
//	file   := header batch*
//	header := magic[8] generation[8]
//	batch  := size[8] fnv64[8] record*       size = record bytes
//	record := op[1] str(key) uvarint(arg) str(value)
//	str    := uvarint(len) byte[len]
//
// op is the executor's Op; arg is a set's flags or an incr's delta,
// and value is empty except for a set. Fixed-width integers are
// little-endian. The checksum covers the generation, the size and the
// record bytes. Replay applies only complete, valid batches and stops
// at the first torn or corrupt one — a process kill mid-append drops
// the whole (unacknowledged) trailing batch atomically.
//
// Replay is exactly-once by construction, so an incr needs no
// after-image: it always starts from the image generation the journal
// is bound to, and a key's records sit in its shard's commit order (a
// key lives on one shard, which appends after each commit). SaveImage
// stamps the image with generation+1 and the journal is then deleted,
// so a stale journal left behind by a kill between those two steps is
// recognized and discarded on the next open.
//
// Appends are deliberately not fsynced: the host failure this guards
// against is process death (the soak harness's SIGKILL), which leaves
// the page cache intact. Host power loss is the *simulated* failure
// domain, covered by the Crash/SaveImage path.

var walMagic = [8]byte{'P', 'T', 'M', 'K', 'V', 'W', 'L', '2'}

const (
	walHeaderSize   = 16
	walBatchHdrSize = 16
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// journal is an open WAL positioned for appending.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	gen uint64
	// buf is the next batch frame: a batch header, filled in at flush,
	// then the records appended since the last flush.
	buf []byte
	err error // first write error; subsequent flushes keep failing
}

// batchSum is a batch's checksum: FNV-1a over the generation, the
// body size and the record bytes.
func batchSum(gen uint64, body []byte) uint64 {
	var scratch [16]byte
	binary.LittleEndian.PutUint64(scratch[:8], gen)
	binary.LittleEndian.PutUint64(scratch[8:], uint64(len(body)))
	return fnv64(fnv64(fnvOffset64, scratch[:]), body)
}

// walScan walks the batches of a WAL byte image and returns the length
// of the valid prefix (including the header) and the batch bodies in
// it. A missing or torn header, or one naming another generation,
// yields prefix 0.
func walScan(data []byte, gen uint64) (prefix int, batches [][]byte) {
	if len(data) < walHeaderSize || [8]byte(data[:8]) != walMagic {
		return 0, nil
	}
	if binary.LittleEndian.Uint64(data[8:16]) != gen {
		return 0, nil
	}
	off := walHeaderSize
	for {
		if len(data)-off < walBatchHdrSize {
			return off, batches
		}
		size := binary.LittleEndian.Uint64(data[off : off+8])
		want := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if size == 0 || size > uint64(len(data)-off-walBatchHdrSize) {
			return off, batches
		}
		body := data[off+walBatchHdrSize : off+walBatchHdrSize+int(size)]
		if batchSum(gen, body) != want {
			return off, batches
		}
		batches = append(batches, body)
		off += walBatchHdrSize + int(size)
	}
}

// openJournal reads the WAL at path once and opens it for appending
// after its valid prefix for generation gen, returning the batch
// bodies in that prefix for replay. A torn tail is truncated (that is
// the crash semantic, not an error); a missing file, or a stale one
// from another generation, starts over at a fresh header. A file in
// another format is never truncated: it may hold acked writes this
// binary cannot replay.
func openJournal(path string, gen uint64) (*journal, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	if len(data) >= len(walMagic) && [8]byte(data[:8]) != walMagic {
		return nil, nil, fmt.Errorf("server: journal %s has format %q, not %q: shut the store down cleanly with the binary that wrote it, which saves its writes into the image and removes the journal", path, data[:8], walMagic[:])
	}
	prefix, batches := walScan(data, gen)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err = f.Truncate(int64(prefix)); err == nil && prefix == 0 {
		_, err = f.Write(binary.LittleEndian.AppendUint64(walMagic[:], gen))
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f, gen: gen, buf: make([]byte, walBatchHdrSize)}, batches, nil
}

// changed reports whether req is a write that changed the table: the
// writes the journal records.
func (req *Request) changed() bool {
	return req.Err == nil && (req.Op == OpSet || req.Op != OpGet && req.Found)
}

// append buffers one record per write in reqs that changed the table,
// in order. The executor calls it once per batch, after the batch's
// transaction commits.
func (j *journal) append(reqs []*Request) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, req := range reqs {
		if !req.changed() {
			continue
		}
		arg, val := req.Delta, []byte(nil) // incr, delete
		if req.Op == OpSet {
			arg, val = uint64(req.Flags), req.Value
		}
		j.buf = append(j.buf, byte(req.Op))
		j.buf = append(binary.AppendUvarint(j.buf, uint64(len(req.Key))), req.Key...)
		j.buf = binary.AppendUvarint(j.buf, arg)
		j.buf = append(binary.AppendUvarint(j.buf, uint64(len(val))), val...)
	}
}

// flush fills in the batch header and appends the frame with one
// write. A kill mid-append leaves a torn tail that replay drops whole.
// Once a write has failed, every flush fails and buffered records are
// dropped: they back no acknowledged response.
func (j *journal) flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	body := j.buf[walBatchHdrSize:]
	if len(body) == 0 || j.err != nil {
		j.buf = j.buf[:walBatchHdrSize]
		return j.err
	}
	binary.LittleEndian.PutUint64(j.buf[:8], uint64(len(body)))
	binary.LittleEndian.PutUint64(j.buf[8:16], batchSum(j.gen, body))
	if _, err := j.f.Write(j.buf); err != nil {
		j.err = fmt.Errorf("server: journal append: %w", err)
		return j.err
	}
	j.buf = j.buf[:walBatchHdrSize]
	return nil
}

// close closes the file; buffered unflushed records are dropped (they
// back no acknowledged response).
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// walReader decodes the records of a batch body. A body that passed
// its checksum but does not parse was not written by this grammar:
// err is set and the rest of the body is dropped.
type walReader struct {
	b   []byte
	err error
}

var errBadRecord = errors.New("server: journal batch holds a malformed record")

func (r *walReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err, n = errBadRecord, len(r.b)
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) str() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.err, n = errBadRecord, uint64(len(r.b))
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// replay re-executes the journal's records through the KV table on th,
// in file order, one transaction each. Every record was a write that
// changed the table when it was acked; one that does not parse or no
// longer applies means the journal does not extend this image.
func (st *Store) replay(th *core.Thread, batches [][]byte) error {
	for _, body := range batches {
		r := walReader{b: body}
		for len(r.b) > 0 {
			req := Request{Op: Op(r.b[0])}
			r.b = r.b[1:]
			req.Key = r.str()
			req.Delta = r.uvarint()
			req.Flags, req.Value = uint32(req.Delta), r.str()
			if r.err != nil {
				return r.err
			}
			th.Atomic(func(tx *core.Tx) { req.run(tx, st.kv) })
			if !req.changed() {
				return fmt.Errorf("server: journal record op %d on %q does not apply: found %v, %v", req.Op, req.Key, req.Found, req.Err)
			}
		}
	}
	return nil
}
