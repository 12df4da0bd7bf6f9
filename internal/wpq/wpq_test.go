package wpq

import (
	"sync"
	"testing"
)

func small() Config {
	return Config{
		Depth:          4,
		NVMWritePorts:  2,
		NVMReadPorts:   4,
		DRAMWritePorts: 2,
		DRAMReadPorts:  2,
		NVMWriteHold:   100,
		NVMReadHold:    200,
		DRAMWriteHold:  50,
		DRAMReadHold:   40,
		StreamDiscount: 4,
		Threads:        4,
	}
}

func TestEnqueueImmediateAcceptWhenEmpty(t *testing.T) {
	c := New(small())
	accept, drain := c.EnqueueNVM(10, 0, 5, CauseCLWB)
	if accept != 10 {
		t.Fatalf("accept = %d, want 10 (empty WPQ accepts immediately)", accept)
	}
	if drain != 110 {
		t.Fatalf("drain = %d, want 110", drain)
	}
}

func TestWPQBackpressure(t *testing.T) {
	c := New(small())
	// Depth 4, 2 write ports, hold 100. Flood with random (non-stream)
	// lines at t=0: drains complete in pairs at 100, 200, 300...
	// The 5th enqueue needs the 1st drain (t=100) to have completed.
	lines := []uint64{10, 20, 30, 40, 50}
	var accepts []int64
	for _, ln := range lines {
		a, _ := c.EnqueueNVM(0, 0, ln, CauseCLWB)
		accepts = append(accepts, a)
	}
	for i := 0; i < 4; i++ {
		if accepts[i] != 0 {
			t.Fatalf("accept[%d] = %d, want 0 (queue not yet full)", i, accepts[i])
		}
	}
	if accepts[4] != 100 {
		t.Fatalf("accept[4] = %d, want 100 (stall until first drain)", accepts[4])
	}
	stall := c.Counters().StallNS
	if stall != 100 {
		t.Fatalf("stall time = %d, want 100", stall)
	}
}

func TestWriteCombiningDiscount(t *testing.T) {
	c := New(small())
	_, d0 := c.EnqueueNVM(0, 0, 100, CauseCLWB)
	if d0 != 100 {
		t.Fatalf("first drain = %d", d0)
	}
	// Sequential next line from the same thread: discounted hold 25,
	// scheduled on the second free port.
	_, d1 := c.EnqueueNVM(0, 0, 101, CauseCLWB)
	if d1 != 25 {
		t.Fatalf("stream drain = %d, want 25 (discounted)", d1)
	}
	// Non-sequential from the same thread: full hold.
	_, d2 := c.EnqueueNVM(0, 0, 500, CauseCLWB)
	if d2 != 125 { // port freed at 25, +100
		t.Fatalf("random drain = %d, want 125", d2)
	}
}

func TestStreamTrackingPerThread(t *testing.T) {
	c := New(small())
	c.EnqueueNVM(0, 0, 100, CauseCLWB)
	// Thread 1 writing line 101 is NOT a continuation of thread 0's stream.
	_, d := c.EnqueueNVM(0, 1, 101, CauseCLWB)
	if d != 100 {
		t.Fatalf("cross-thread write got stream discount: drain = %d", d)
	}
}

func TestWritePortSaturation(t *testing.T) {
	// 2 ports, hold 100: 10 random-line writes from t=0 drain the last
	// at t = 10/2*100 = 500 — bandwidth, not latency, limited.
	c := New(small())
	var last int64
	for i := 0; i < 10; i++ {
		_, d := c.EnqueueNVM(0, 0, uint64(i*7+3), CauseCLWB) // non-sequential
		if d > last {
			last = d
		}
	}
	if last != 500 {
		t.Fatalf("last drain = %d, want 500", last)
	}
}

func TestReadPortsScaleFurther(t *testing.T) {
	c := New(small())
	// 4 read ports, hold 200: 4 concurrent reads all complete at 200.
	for i := 0; i < 4; i++ {
		if done := c.ReadNVM(0, uint64(i)); done != 200 {
			t.Fatalf("read %d done = %d, want 200", i, done)
		}
	}
	if done := c.ReadNVM(0, 99); done != 400 {
		t.Fatalf("5th read done = %d, want 400 (queued)", done)
	}
}

func TestDRAMChannels(t *testing.T) {
	c := New(small())
	if done := c.ReadDRAM(0); done != 40 {
		t.Fatalf("DRAM read done = %d, want 40", done)
	}
	if done := c.WriteDRAM(0); done != 50 {
		t.Fatalf("DRAM write done = %d, want 50", done)
	}
}

func TestStatsAndUtilization(t *testing.T) {
	c := New(small())
	c.EnqueueNVM(0, 0, 1, CauseCLWB)
	c.EnqueueNVM(0, 0, 9, CauseCLWB) // non-sequential
	accepts := c.Counters().Accepts
	if accepts != 2 {
		t.Fatalf("accepts = %d, want 2", accepts)
	}
	wbusy, _ := c.Utilization()
	if wbusy != 200 {
		t.Fatalf("write busy = %d, want 200", wbusy)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig(32)
	if cfg.NVMWritePorts >= cfg.NVMReadPorts {
		t.Fatal("NVM write bandwidth must knee before read bandwidth")
	}
	if cfg.NVMReadHold <= cfg.DRAMReadHold {
		t.Fatal("NVM reads must be slower than DRAM reads")
	}
	if cfg.Depth != 64 {
		t.Fatalf("default WPQ depth = %d, want 64", cfg.Depth)
	}
	New(cfg) // must not panic
}

func TestInvalidDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero depth accepted")
		}
	}()
	New(Config{Depth: 0})
}

func TestConcurrentEnqueueSafety(t *testing.T) {
	c := New(DefaultConfig(8))
	var wg sync.WaitGroup
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a, d := c.EnqueueNVM(int64(i), tid, uint64(tid*100000+i), CauseCLWB)
				if d < a {
					t.Errorf("drain %d before accept %d", d, a)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	accepts := c.Counters().Accepts
	if accepts != 8*2000 {
		t.Fatalf("accepts = %d, want %d", accepts, 8*2000)
	}
}

func TestAcceptMonotoneUnderLoad(t *testing.T) {
	// Property: repeated enqueues at the same nominal time get
	// non-decreasing accept times once the queue is saturated.
	c := New(small())
	prev := int64(-1)
	for i := 0; i < 64; i++ {
		a, _ := c.EnqueueNVM(0, 0, uint64(i*3+1), CauseCLWB)
		if a < prev {
			t.Fatalf("accept went backwards: %d after %d", a, prev)
		}
		prev = a
	}
	if prev == 0 {
		t.Fatal("saturated queue never stalled")
	}
}

func TestOccupancyAt(t *testing.T) {
	c := New(small()) // 2 ports, hold 100
	c.EnqueueNVM(0, 0, 10, CauseCLWB)
	c.EnqueueNVM(0, 0, 20, CauseCLWB) // both drain at t=100
	c.EnqueueNVM(0, 0, 30, CauseCLWB) // drains at t=200
	if got := c.OccupancyAt(0); got != 3 {
		t.Fatalf("occupancy(0) = %d, want 3", got)
	}
	if got := c.OccupancyAt(150); got != 1 {
		t.Fatalf("occupancy(150) = %d, want 1", got)
	}
	if got := c.OccupancyAt(500); got != 0 {
		t.Fatalf("occupancy(500) = %d, want 0", got)
	}
}

func TestBulkTransfers(t *testing.T) {
	c := New(small()) // NVMReadHold 200, NVMWriteHold 100, discount 4
	if done := c.ReadNVMBulk(0, 64); done != 64*200/4 {
		t.Fatalf("bulk read done = %d, want %d", done, 64*200/4)
	}
	if done := c.WriteNVMBulk(0, 64); done != 64*100/4 {
		t.Fatalf("bulk write done = %d, want %d", done, 64*100/4)
	}
	// Bulk writes occupy write ports: they compete with line drains.
	c2 := New(small())
	c2.WriteNVMBulk(0, 64) // port 0 busy until 1600
	c2.WriteNVMBulk(0, 64) // port 1 busy until 1600
	_, d := c2.EnqueueNVM(0, 0, 99, CauseCLWB)
	if d != 1700 {
		t.Fatalf("line drain behind bulk writes = %d, want 1700", d)
	}
}
