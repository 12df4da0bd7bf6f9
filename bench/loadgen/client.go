package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"time"
)

// Window is the measured interval: only requests that fall in
// [Start, End) count, so warm-up before it and the drain after it
// leave the numbers alone.
type Window struct{ Start, End time.Time }

func (w Window) has(t time.Time) bool { return !t.Before(w.Start) && t.Before(w.End) }

// Result is what one connection measured inside the window.
type Result struct {
	// One entry per correct reply: when it arrived, as an offset from
	// Window.Start, and its latency (closed loop: send→reply; open
	// loop: due→reply).
	AtNS, LatNS []int64
	Sets        int    // how many of those acked a set
	Failed      int    // error replies, wrong values, broken stream
	FirstErr    string // the first failure, for the report

	// Generator lateness, one entry per request, and where in the window
	// it belongs, as an offset from Window.Start. Open loop: send time
	// minus due time, at the due time. Closed loop: from the reply that
	// freed a slot to the replacement request leaving the socket buffer,
	// at that moment.
	LateNS, LateAtNS []int64
	MaxOut           int     // most requests in flight at once
	CapAtNS          []int64 // open loop: due offsets of sends that found Spec.MaxOut already in flight
}

// Client is one connection: its generator, its socket, and the
// per-key version bookkeeping that makes every reply checkable.
type Client struct {
	spec Spec
	gen  *Gen
	conn net.Conn
	rr   *ReplyReader
	w    *bufio.Writer
	out  []byte // request scratch
	val  []byte // set-payload scratch (sending side)
	want []byte // expected-value scratch (receiving side)

	acked []uint32 // per key id: highest version whose set was acked
	res   Result
}

type pending struct {
	req Req
	at  time.Time // closed loop: send time; open loop: due time
}

// Dial connects connection number conn of spec's traffic to addr.
func Dial(addr string, spec Spec, seed uint64, conn int) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		spec:  spec,
		gen:   NewGen(spec, seed, conn),
		conn:  c,
		rr:    NewReplyReader(c),
		w:     bufio.NewWriterSize(c, 64<<10),
		acked: make([]uint32, spec.Keys),
	}
	for _, k := range cl.gen.Owned() {
		cl.acked[k] = 1
	}
	return cl, nil
}

// Close closes the socket.
func (c *Client) Close() { c.conn.Close() }

// Acked and Issued bound the version key k may hold after a crash:
// every acked set must survive, no set beyond the last issued exists.
func (c *Client) Acked(k int) uint32  { return c.acked[k] }
func (c *Client) Issued(k int) uint32 { return c.gen.Issued(k) }

// Owned lists the connection's keys.
func (c *Client) Owned() []int { return c.gen.Owned() }

// Result returns what the last run measured.
func (c *Client) Result() *Result { return &c.res }

func (c *Client) fail(format string, args ...any) {
	c.res.Failed++
	if c.res.FirstErr == "" {
		c.res.FirstErr = fmt.Sprintf(format, args...)
	}
}

// write queues one request on the socket buffer.
func (c *Client) write(r Req, key string) {
	if r.Op == OpGet {
		c.out = AppendGet(c.out[:0], key)
	} else {
		c.val = AppendValue(c.val[:0], r.Key, r.Ver, c.spec.ValueSize)
		c.out = AppendSet(c.out[:0], key, c.val)
	}
	c.w.Write(c.out) // a write error resurfaces at Flush
}

// check validates reply against the request it answers and reports
// whether it is exactly right.
func (c *Client) check(r Req, reply Reply) (ok bool, why string) {
	if r.Op == OpSet {
		if reply.Kind != ReplyStored {
			return false, fmt.Sprintf("set %s v%d: %s", KeyName(r.Key), r.Ver, describe(reply))
		}
		c.acked[r.Key] = r.Ver
		return true, ""
	}
	c.want = AppendValue(c.want[:0], r.Key, r.Ver, c.spec.ValueSize)
	if reply.Kind != ReplyValue || !bytes.Equal(reply.Data, c.want) {
		return false, fmt.Sprintf("get %s want v%d: %s", KeyName(r.Key), r.Ver, describe(reply))
	}
	return true, ""
}

func describe(r Reply) string {
	switch r.Kind {
	case ReplyStored:
		return "STORED"
	case ReplyMiss:
		return "miss"
	case ReplyValue:
		return fmt.Sprintf("value %.24q", r.Data)
	default:
		return fmt.Sprintf("%q", r.Line)
	}
}

// record books one in-window reply that arrived at now.
func (c *Client) record(win Window, p pending, now time.Time, ok bool, why string) {
	if !ok {
		c.fail("%s", why)
		return
	}
	c.res.AtNS = append(c.res.AtNS, now.Sub(win.Start).Nanoseconds())
	c.res.LatNS = append(c.res.LatNS, now.Sub(p.at).Nanoseconds())
	if p.req.Op == OpSet {
		c.res.Sets++
	}
}

// RunClosed keeps spec.Depth requests in flight until stop closes or
// the stream breaks: each reply read makes room for one new request.
// Latency is send→reply; a request counts when its reply lands inside
// win. A stream that breaks before win.End counts as one failure;
// after it (the durability check kills the server under load) it is
// the expected end of the run.
func (c *Client) RunClosed(win Window, stop <-chan struct{}) {
	c.conn.SetDeadline(win.End.Add(30 * time.Second))
	c.runClosed(win, stop, 0)
}

// RunClosedN runs the closed loop for exactly n requests, all counted.
func (c *Client) RunClosedN(n int) {
	now := time.Now()
	c.conn.SetDeadline(now.Add(120 * time.Second))
	c.runClosed(Window{Start: now, End: now.Add(24 * time.Hour)}, nil, n)
}

func (c *Client) runClosed(win Window, stop <-chan struct{}, limit int) {
	ring := make([]pending, c.spec.Depth)
	freed := make([]time.Time, 0, c.spec.Depth) // reply times of slots not yet refilled
	head, n, sent := 0, 0, 0                    // ring[head] is the oldest in flight
	c.res.MaxOut = c.spec.Depth
	stopping := false
	for {
		select {
		case <-stop: // a nil stop never fires
			stopping = true
		default:
		}
		for !stopping && n < len(ring) {
			if limit > 0 && sent == limit {
				stopping = true
				break
			}
			r := c.gen.Next()
			c.write(r, c.gen.Name(r.Key))
			ring[(head+n)%len(ring)] = pending{r, time.Now()}
			n++
			sent++
		}
		if n == 0 {
			return
		}
		if err := c.w.Flush(); err != nil {
			c.broken(win, err)
			return
		}
		if flushed := time.Now(); win.has(flushed) && !stopping {
			for _, t := range freed {
				c.res.LateNS = append(c.res.LateNS, flushed.Sub(t).Nanoseconds())
				c.res.LateAtNS = append(c.res.LateAtNS, flushed.Sub(win.Start).Nanoseconds())
			}
		}
		freed = freed[:0]
		// One blocking read, then whatever else already arrived: under
		// load several replies share a segment, and answering them with
		// one write keeps the generator's syscall cost off the server's
		// cores.
		for first := true; n > 0 && (first || c.rr.Buffered() > 0); first = false {
			reply, err := c.rr.Read()
			if err != nil {
				c.broken(win, err)
				return
			}
			now := time.Now()
			p := ring[head]
			head, n = (head+1)%len(ring), n-1
			freed = append(freed, now)
			ok, why := c.check(p.req, reply)
			if win.has(now) {
				c.record(win, p, now, ok, why)
			}
		}
	}
}

func (c *Client) broken(win Window, err error) {
	if time.Now().Before(win.End) {
		c.fail("stream broke inside the measured interval: %v", err)
	}
}

// RunOpen sends this connection's share of spec.RateHz on a fixed
// schedule from start until win.End, whatever the replies do: a
// request is never skipped and the schedule is never shifted after a
// stall. Latency is due→reply, so the wait a stall imposes on later
// requests is counted. A request counts when its due time lies inside
// win.
func (c *Client) RunOpen(start time.Time, win Window) {
	c.conn.SetDeadline(win.End.Add(30 * time.Second))
	// Sized to the in-flight cap: a full channel is the cap being hit.
	inflight := make(chan pending, c.spec.MaxOut)
	period := float64(time.Second) * float64(c.spec.Conns) / c.spec.RateHz
	senderDone := make(chan struct{})
	var late, lateAt, capAt []int64
	var maxOut int
	go func() {
		defer close(senderDone)
		defer close(inflight)
		// The sender sleeps in the kernel on a thread of its own: the Go
		// runtime's timers ride epoll_wait's millisecond timeout, which
		// alone would make every send up to 1 ms late.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) * period))
			if !due.Before(win.End) {
				return
			}
			if d := time.Until(due); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				syscall.Nanosleep(&ts, nil) // an early wake only sends early by less than the lateness limit
			}
			p := pending{c.gen.Next(), due}
			select {
			case inflight <- p:
			default:
				if win.has(due) {
					capAt = append(capAt, due.Sub(win.Start).Nanoseconds())
				}
				inflight <- p
			}
			maxOut = max(maxOut, len(inflight))
			c.write(p.req, c.gen.Name(p.req.Key))
			if err := c.w.Flush(); err != nil {
				return // the reader reports the broken stream
			}
			if win.has(due) {
				late = append(late, time.Since(due).Nanoseconds())
				lateAt = append(lateAt, due.Sub(win.Start).Nanoseconds())
			}
		}
	}()
	for p := range inflight {
		reply, err := c.rr.Read()
		if err != nil {
			c.fail("stream broke: %v", err)
			c.conn.Close() // unblock the sender
			for range inflight {
				c.res.Failed++
			}
			break
		}
		now := time.Now()
		ok, why := c.check(p.req, reply)
		if win.has(p.at) {
			c.record(win, p, now, ok, why)
		}
	}
	<-senderDone
	c.res.LateNS, c.res.LateAtNS, c.res.MaxOut, c.res.CapAtNS = late, lateAt, maxOut, capAt
}

// Preload writes version 1 of every key in spec over one connection,
// pipelined, and checks every ack. A set the server sheds ("SERVER_ERROR
// busy": rare, seen once in some hundred fresh starts) is sent again, as
// a client would; three rounds of refusals are an error. Set-up is not
// a measured operation — sheds inside a measured window do count.
func Preload(addr string, spec Spec) error {
	keys := make([]int, spec.Keys)
	for k := range keys {
		keys[k] = k
	}
	for attempt := 0; len(keys) > 0; attempt++ {
		if attempt == 3 {
			return fmt.Errorf("preload: %d keys still refused as busy after %d rounds", len(keys), attempt)
		}
		var refused []int
		err := sweep(addr, spec, OpSet, keys, func(k int, reply Reply) error {
			switch {
			case reply.Kind == ReplyStored:
			case reply.Kind == ReplyError && bytes.HasPrefix(reply.Line, []byte("SERVER_ERROR busy")):
				refused = append(refused, k)
			default:
				return fmt.Errorf("preload %s: %s", KeyName(k), describe(reply))
			}
			return nil
		})
		if err != nil {
			return err
		}
		keys = refused
	}
	return nil
}

// ReadBack fetches every key and returns the version each holds. A
// missing key or a value that is not byte-for-byte one the generator
// makes is an error.
func ReadBack(addr string, spec Spec) ([]uint32, error) {
	vers := make([]uint32, spec.Keys)
	keys := make([]int, spec.Keys)
	for k := range keys {
		keys[k] = k
	}
	err := sweep(addr, spec, OpGet, keys, func(k int, reply Reply) error {
		if reply.Kind != ReplyValue {
			return fmt.Errorf("read back %s: %s", KeyName(k), describe(reply))
		}
		got, ver, ok := ParseValue(reply.Data, spec.ValueSize)
		if !ok || got != k {
			return fmt.Errorf("read back %s: foreign value %.24q", KeyName(k), reply.Data)
		}
		vers[k] = ver
		return nil
	})
	return vers, err
}

// sweep issues op (a version-1 set, or a get) for each of keys,
// sweepDepth at a time, handing each reply to visit.
func sweep(addr string, spec Spec, op Op, keys []int, visit func(k int, reply Reply) error) error {
	const sweepDepth = 64 // below the server's per-connection pipeline bound of 128
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	c := &Client{spec: spec, conn: conn, rr: NewReplyReader(conn), w: bufio.NewWriterSize(conn, 64<<10)}
	for len(keys) > 0 {
		chunk := keys[:min(sweepDepth, len(keys))]
		keys = keys[len(chunk):]
		for _, k := range chunk {
			c.write(Req{Op: op, Key: k, Ver: 1}, KeyName(k))
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		for _, k := range chunk {
			reply, err := c.rr.Read()
			if err != nil {
				return err
			}
			if err := visit(k, reply); err != nil {
				return err
			}
		}
	}
	return nil
}
