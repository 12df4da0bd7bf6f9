package simtime

import (
	"sync"
	"testing"
	"time"
)

func TestThreadAdvance(t *testing.T) {
	e := NewEngine(0)
	th := e.NewThread(0)
	defer th.Detach()
	if th.Now() != 0 {
		t.Fatalf("new thread clock = %d, want 0", th.Now())
	}
	th.Advance(100)
	if th.Now() != 100 {
		t.Fatalf("clock = %d, want 100", th.Now())
	}
	th.AdvanceTo(50) // past: no-op
	if th.Now() != 100 {
		t.Fatalf("AdvanceTo past moved clock to %d", th.Now())
	}
	th.AdvanceTo(250)
	if th.Now() != 250 {
		t.Fatalf("clock = %d, want 250", th.Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := NewEngine(0)
	th := e.NewThread(0)
	defer th.Detach()
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	th.Advance(-1)
}

func TestSingleThreadCrossesWindowsFreely(t *testing.T) {
	e := NewEngine(10)
	th := e.NewThread(0)
	defer th.Detach()
	// With a single attached thread, window crossings must not block.
	th.Advance(1_000_000)
	if th.Now() != 1_000_000 {
		t.Fatalf("clock = %d", th.Now())
	}
}

func TestWindowBarrierBoundsSkew(t *testing.T) {
	const win = 100
	const n = 4
	const end = 10_000
	e := NewEngine(win)
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = e.NewThread(i)
	}
	var mu sync.Mutex
	maxSkew := int64(0)
	clocks := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := threads[i]
			step := int64(i + 1) // heterogeneous speeds
			for th.Now() < end {
				th.Advance(step)
				mu.Lock()
				clocks[i] = th.Now()
				lo, hi := clocks[0], clocks[0]
				for _, c := range clocks {
					if c < lo {
						lo = c
					}
					if c > hi {
						hi = c
					}
				}
				if s := hi - lo; s > maxSkew {
					maxSkew = s
				}
				mu.Unlock()
			}
			th.Detach()
		}(i)
	}
	wg.Wait()
	// Threads may differ by up to roughly two windows plus one step:
	// one thread can sit at the start of window k while another has
	// just been released into window k+1 and taken a step.
	limit := int64(2*win + n + 1)
	if maxSkew > limit {
		t.Fatalf("virtual-clock skew %d exceeds limit %d", maxSkew, limit)
	}
}

func TestDetachReleasesWaiters(t *testing.T) {
	e := NewEngine(100)
	a := e.NewThread(0)
	b := e.NewThread(1)
	done := make(chan struct{})
	go func() {
		b.Advance(1000) // blocks at window until a catches up or detaches
		b.Detach()
		close(done)
	}()
	a.Advance(10)
	a.Detach() // must release b
	<-done
	if b.Now() != 1000 {
		t.Fatalf("b clock = %d, want 1000", b.Now())
	}
}

func TestDetachIdempotent(t *testing.T) {
	e := NewEngine(0)
	th := e.NewThread(0)
	th.Detach()
	th.Detach() // must not panic or corrupt active count
	th2 := e.NewThread(1)
	th2.Advance(5000)
	th2.Detach()
}

func TestManyThreadsTerminate(t *testing.T) {
	// Regression test for barrier deadlocks: many threads with random
	// step sizes all run to completion.
	e := NewEngine(50)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		th := e.NewThread(i)
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			r := NewRand(uint64(th.ID()))
			for th.Now() < 20_000 {
				th.Advance(int64(1 + r.Intn(300)))
			}
			th.Detach()
		}(th)
	}
	wg.Wait()
}

func TestNewThreadJoinsCurrentWindow(t *testing.T) {
	e := NewEngine(100)
	a := e.NewThread(0)
	a.Advance(5000) // single thread: advances freely, window follows
	b := e.NewThread(1)
	if b.Now() < a.Now()-2*100 {
		t.Fatalf("late-joining thread started at %d, far behind %d", b.Now(), a.Now())
	}
	a.Detach()
	b.Detach()
}

// TestParkedThreadHoldsNoWindow: with three threads attached and one
// parked, the other two cross 1,000 windows without it — which only
// Detach could allow before — and it rejoins at their present.
func TestParkedThreadHoldsNoWindow(t *testing.T) {
	e := NewEngine(DefaultWindow)
	a, b, c := e.NewThread(0), e.NewThread(1), e.NewThread(2)
	c.Park()
	const end = 1000 * DefaultWindow
	var wg sync.WaitGroup
	for _, th := range []*Thread{a, b} {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for th.Now() < end {
				th.Advance(DefaultWindow / 4)
			}
		}(th)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("busy threads stalled on a parked one")
	}
	c.Resume()
	if c.Now() < end-DefaultWindow {
		t.Fatalf("resumed at %d, behind the others' present %d", c.Now(), end)
	}
	a.Detach()
	b.Detach()
	c.Advance(5 * DefaultWindow) // alone now: crosses freely
	c.Detach()
}

// TestResumeJoinsPresent: Resume moves a lagging clock up to the start
// of the current window and leaves one already inside it alone.
func TestResumeJoinsPresent(t *testing.T) {
	e := NewEngine(100)
	a, b := e.NewThread(0), e.NewThread(1)
	b.Advance(70)
	b.Park()
	a.Advance(50_050)
	b.Resume()
	if want := e.window.Load() - 100; b.Now() != want || want < 50_000 {
		t.Fatalf("lagging thread resumed at %d, want window start %d", b.Now(), want)
	}
	a.Detach()
	b.Advance(30)
	at := b.Now()
	b.Park()
	b.Resume() // nobody moved the window: the clock stays put
	if b.Now() != at {
		t.Fatalf("resumed at %d, want its own clock %d", b.Now(), at)
	}
	b.Detach()
}

// TestParkReleasesWaiters: when the last thread the others wait for
// parks, the window advances at once, as it does on Detach.
func TestParkReleasesWaiters(t *testing.T) {
	e := NewEngine(100)
	a, b := e.NewThread(0), e.NewThread(1)
	done := make(chan struct{})
	go func() {
		b.Advance(1000) // blocks at the boundary until a parks
		close(done)
	}()
	a.Advance(10)
	a.Park()
	<-done
	a.Resume()
	a.Detach()
	b.Detach()
}

func TestParkLockstepPanics(t *testing.T) {
	e := NewLockstepEngine(0)
	th := e.NewThread(0)
	defer th.Detach()
	defer func() {
		if recover() == nil {
			t.Fatal("Park on a lockstep engine did not panic")
		}
	}()
	th.Park()
}
