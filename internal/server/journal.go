package server

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"goptm/internal/memdev"
)

// The media write-ahead journal closes the gap between the simulated
// and the host failure model. Inside the simulation, an acked write is
// durable once its commit marker sits in the WPQ (ADR) — but the whole
// simulated NVM lives in this process's address space, and the image
// file is only rewritten on clean shutdown. A SIGKILL of the host
// process would therefore lose every write acked since the last image
// save, even though the *simulated* machine never failed. The journal
// fixes that, and the executor's durable-ack barrier is its only
// writer: Store.DrainMedia forces the pending WPQ entries onto media
// and appends exactly those lines, then Store.FlushJournal writes them
// to the host file as one batch, before any response is acknowledged.
// Replaying image + journal reconstructs media as of the last barrier.
//
// Records are framed in batches, one per barrier flush:
//
//	file   := header batch*
//	header := magic[8] generation[8]
//	batch  := count[8] fnv64[8] record[count]
//	record := line[8] payload[64]
//
// All integers little-endian. The checksum covers the generation, the
// count, and the record bytes. Replay applies only complete, valid
// batches and stops at the first torn or corrupt one — a process kill
// mid-append drops the whole (unacknowledged) trailing batch
// atomically, so within-batch write ordering never matters.
//
// The journal is bound to the image it extends by generation:
// SaveImage stamps the image with generation+1 and deletes the
// journal, so a stale journal left behind by a kill between those two
// steps is recognized and discarded on the next open.
//
// Appends are deliberately not fsynced: the host failure this guards
// against is process death (the soak harness's SIGKILL), which leaves
// the page cache intact. Host power loss is the *simulated* failure
// domain, covered by the Crash/SaveImage path.

var walMagic = [8]byte{'P', 'T', 'M', 'K', 'V', 'W', 'L', '1'}

const (
	walHeaderSize   = 16
	walRecordSize   = 8 + memdev.WordsPerLine*8
	walBatchHdrSize = 16
)

const fnvOffset64 = 14695981039346656037

func fnv64(h uint64, b []byte) uint64 {
	const prime = 1099511628211
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// journal is an open WAL positioned for appending.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	gen uint64
	// buf is the next batch frame: a batch header, filled in at flush,
	// then the records accumulated since the last flush.
	buf []byte
	err error // first write error; subsequent flushes keep failing
}

// batchSum is a batch's checksum: FNV-1a over the generation, the
// record count and the record bytes.
func batchSum(gen, n uint64, body []byte) uint64 {
	var scratch [16]byte
	binary.LittleEndian.PutUint64(scratch[:8], gen)
	binary.LittleEndian.PutUint64(scratch[8:], n)
	return fnv64(fnv64(fnvOffset64, scratch[:]), body)
}

// walScan walks the batches of a WAL byte image and returns the length
// of the valid prefix (including the header) and the batch frames in
// it. A missing or mismatched header yields prefix 0.
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
		n := binary.LittleEndian.Uint64(data[off : off+8])
		want := binary.LittleEndian.Uint64(data[off+8 : off+16])
		size := int(n) * walRecordSize
		if n == 0 || n > uint64(len(data)) || len(data)-off-walBatchHdrSize < size {
			return off, batches
		}
		body := data[off+walBatchHdrSize : off+walBatchHdrSize+size]
		if batchSum(gen, n, body) != want {
			return off, batches
		}
		batches = append(batches, body)
		off += walBatchHdrSize + size
	}
}

// openJournal opens (or creates) the WAL at path for generation gen,
// truncating any torn tail — or the whole file, if it extends a
// different generation — and positioning at the end of the valid
// prefix.
func openJournal(path string, gen uint64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	prefix, _ := walScan(data, gen)
	if prefix == 0 {
		// Fresh file, or a stale journal from another generation.
		var hdr [walHeaderSize]byte
		copy(hdr[:8], walMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], gen)
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		prefix = walHeaderSize
	} else if err := f.Truncate(int64(prefix)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(prefix), 0); err != nil {
		f.Close()
		return nil, err
	}
	return &journal{f: f, gen: gen, buf: make([]byte, walBatchHdrSize)}, nil
}

// replayJournal applies every record of every valid batch in the WAL
// at path, in file order, provided the file extends generation gen. A
// missing file or a stale generation replays nothing; a torn tail is
// silently dropped (that is the crash semantic, not an error).
func replayJournal(path string, gen uint64, apply func(ln uint64, payload [memdev.WordsPerLine]uint64)) (batches int, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	_, frames := walScan(data, gen)
	var payload [memdev.WordsPerLine]uint64
	for _, body := range frames {
		for off := 0; off < len(body); off += walRecordSize {
			ln := binary.LittleEndian.Uint64(body[off : off+8])
			for w := range payload {
				payload[w] = binary.LittleEndian.Uint64(body[off+8+w*8:])
			}
			apply(ln, payload)
		}
	}
	return len(frames), nil
}

// record buffers one drained line. Called by the durable-ack
// barrier's drain, under the device's serialization.
func (j *journal) record(ln uint64, payload [memdev.WordsPerLine]uint64) {
	j.mu.Lock()
	j.buf = binary.LittleEndian.AppendUint64(j.buf, ln)
	for _, v := range payload {
		j.buf = binary.LittleEndian.AppendUint64(j.buf, v)
	}
	j.mu.Unlock()
}

// flush fills in the batch header and appends the frame with one
// write. A kill mid-append leaves a torn tail that replay drops whole.
func (j *journal) flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	body := j.buf[walBatchHdrSize:]
	if len(body) == 0 {
		return nil
	}
	n := uint64(len(body) / walRecordSize)
	binary.LittleEndian.PutUint64(j.buf[:8], n)
	binary.LittleEndian.PutUint64(j.buf[8:16], batchSum(j.gen, n, body))
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
