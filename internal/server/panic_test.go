package server

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"goptm/internal/core"
)

// panicChildEnv carries the image path to the re-executed test binary
// that plays the panicking server.
const panicChildEnv = "GOPTM_SHARD_PANIC_IMAGE"

// TestShardPanicDumpsFlight: a shard worker's panic (anything but a
// simulated power failure) kills the process from the worker's own
// goroutine, where no owner's recover can reach it — so the worker
// must dump the flight ring itself. The child, this test binary
// re-executed, acks one write and then panics the shard inside the
// next commit; the parent demands a non-zero exit and a sidecar
// holding the acked record.
func TestShardPanicDumpsFlight(t *testing.T) {
	if image := os.Getenv(panicChildEnv); image != "" {
		panicChild(image)
		return // unreachable: the shard worker's panic ends the process
	}
	image := filepath.Join(t.TempDir(), "kv.img")
	cmd := exec.Command(os.Args[0], "-test.run=^TestShardPanicDumpsFlight$")
	cmd.Env = append(os.Environ(), panicChildEnv+"="+image)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !bytes.Contains(out, []byte("panic: boom")) {
		t.Fatalf("child did not die of the shard panic: err = %v\n%s", err, out)
	}
	d, err := ReadFlightDump(FlightPath(image))
	if err != nil {
		t.Fatalf("the dead server left no flight sidecar: %v", err)
	}
	if d.Seq != 1 || len(d.Records) != 1 || d.Records[0].Op != uint8(OpSet) || d.Records[0].Err {
		t.Fatalf("sidecar does not hold the one acked write: %+v", d)
	}
}

// panicChild serves one acked set with the ring mirrored at an
// interval that never ticks, then panics the shard worker in the next
// commit.
func panicChild(image string) {
	st, err := OpenDurable(image, StoreConfig{Shards: 1, Heap: 1 << 18})
	if err != nil {
		panic(err)
	}
	var armed atomic.Bool
	st.TM().SetCrashHook(func(string, *core.Thread) {
		if armed.Load() {
			panic("boom")
		}
	})
	ring := NewFlightRecorder(FlightSlots)
	e := NewExecutor(st, ExecConfig{DeadlineNS: -1, DurableAck: true, WallClock: true, Flight: ring})
	ring.StartMirror(FlightPath(image), time.Hour, nil)
	acked := &Request{Op: OpSet, Key: []byte("acked"), Value: []byte("v"), Done: make(chan struct{})}
	e.Submit(acked)
	<-acked.Done
	armed.Store(true)
	e.Submit(&Request{Op: OpSet, Key: []byte("doomed"), Value: []byte("v")})
	time.Sleep(10 * time.Second)
}
