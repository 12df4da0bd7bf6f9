package loadgen

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRequestBytes(t *testing.T) {
	got := string(AppendGet(AppendSet(nil, "bk00001", []byte("hello")), "bk00001"))
	want := "set bk00001 0 0 5\r\nhello\r\nget bk00001\r\n"
	if got != want {
		t.Fatalf("requests = %q, want %q", got, want)
	}
}

// TestReplyTranscript parses what ptmserve answers, byte for byte as
// internal/server/tcp.go renders it.
func TestReplyTranscript(t *testing.T) {
	transcript := "STORED\r\n" +
		"VALUE bk00001 0 5\r\nhello\r\nEND\r\n" +
		"END\r\n" +
		"SERVER_ERROR busy\r\n" +
		"CLIENT_ERROR bad data chunk\r\n" +
		"ERROR\r\n" +
		"VALUE bk00002 7 0\r\n\r\nEND\r\n"
	rr := NewReplyReader(strings.NewReader(transcript))
	want := []struct {
		kind ReplyKind
		text string
	}{
		{ReplyStored, ""}, {ReplyValue, "hello"}, {ReplyMiss, ""},
		{ReplyError, "SERVER_ERROR busy"}, {ReplyError, "CLIENT_ERROR bad data chunk"}, {ReplyError, "ERROR"},
		{ReplyValue, ""},
	}
	for i, w := range want {
		r, err := rr.Read()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		text := string(r.Data)
		if r.Kind == ReplyError {
			text = string(r.Line)
		}
		if r.Kind != w.kind || text != w.text {
			t.Fatalf("reply %d = kind %d %q, want kind %d %q", i, r.Kind, text, w.kind, w.text)
		}
	}
	if _, err := rr.Read(); err == nil {
		t.Fatal("read past the transcript's end succeeded")
	}
	for _, broken := range []string{
		"VALUE bk00001 0 5\r\nhel",                 // cut inside the value
		"VALUE bk00001 0 5\r\nhelloXXEND\r\n",      // value not CRLF-terminated
		"VALUE bk00001 0 5\r\nhello\r\nSTORED\r\n", // no END
		"VALUE bk00001 0\r\n",                      // short VALUE line
	} {
		if _, err := NewReplyReader(strings.NewReader(broken)).Read(); err == nil {
			t.Errorf("broken stream %q parsed", broken)
		}
	}
}

// fakeServer is a map behind the wire protocol. With lie set it
// answers every get with the preloaded version, whatever was set since;
// it sheds its first refuse sets as ptmserve sheds an overdue request.
func fakeServer(t *testing.T, lie bool, refuse int) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	store := map[string][]byte{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// One connection at a time is all the tests open.
			r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					break
				}
				f := strings.Fields(line)
				switch f[0] {
				case "set":
					n, _ := strconv.Atoi(f[4])
					val := make([]byte, n+2)
					if _, err := io.ReadFull(r, val); err != nil {
						return
					}
					if refuse > 0 {
						refuse--
						w.WriteString("SERVER_ERROR busy\r\n")
						break
					}
					if _, seen := store[f[1]]; !seen || !lie {
						store[f[1]] = val[:n]
					}
					w.WriteString("STORED\r\n")
				case "get":
					if v, ok := store[f[1]]; ok {
						w.WriteString("VALUE " + f[1] + " 0 64\r\n")
						w.Write(v)
						w.WriteString("\r\n")
					}
					w.WriteString("END\r\n")
				}
				if r.Buffered() == 0 {
					w.Flush()
				}
			}
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

func TestClosedLoopChecksEveryReply(t *testing.T) {
	spec := Spec{Keys: 64, ValueSize: 64, Conns: 1, Depth: 8, GetShare: 0.5}
	addr := fakeServer(t, false, 0)
	if err := Preload(addr, spec); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, spec, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunClosedN(2000)
	c.Close()
	res := c.Result()
	if res.Failed != 0 || len(res.LatNS) != 2000 || len(res.AtNS) != 2000 {
		t.Fatalf("honest server: %d failed, %d ok: %s", res.Failed, len(res.LatNS), res.FirstErr)
	}
	if res.Sets == 0 || res.Sets == 2000 {
		t.Fatalf("a 50/50 mix acked %d sets of 2000", res.Sets)
	}
	vers, err := ReadBack(addr, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range c.Owned() {
		if vers[k] != c.Acked(k) || vers[k] != c.Issued(k) {
			t.Fatalf("key %d holds v%d, acked v%d, issued v%d", k, vers[k], c.Acked(k), c.Issued(k))
		}
	}

	// A server that serves stale values must be caught.
	addr = fakeServer(t, true, 0)
	if err := Preload(addr, spec); err != nil {
		t.Fatal(err)
	}
	c, err = Dial(addr, spec, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunClosedN(2000)
	c.Close()
	if res := c.Result(); res.Failed == 0 || !strings.Contains(res.FirstErr, "want v") {
		t.Fatalf("stale reads went unnoticed: %d failed, %q", res.Failed, res.FirstErr)
	}
}

func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	spec := Spec{Keys: 64, ValueSize: 64, Conns: 1, GetShare: 0.5, RateHz: 2000, MaxOut: 128}
	addr := fakeServer(t, false, 0)
	if err := Preload(addr, spec); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, spec, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	win := Window{Start: start.Add(50 * time.Millisecond), End: start.Add(300 * time.Millisecond)}
	c.RunOpen(start, win)
	res := c.Result()
	// 250 ms at 2000/s: every due request is sent, none skipped.
	if got := len(res.LatNS) + res.Failed; got != 500 {
		t.Fatalf("%d requests counted in a 250 ms window at 2000/s, want 500", got)
	}
	if res.Failed != 0 || len(res.CapAtNS) != 0 {
		t.Fatalf("%d failed, %d cap hits: %s", res.Failed, len(res.CapAtNS), res.FirstErr)
	}
	if len(res.LateNS) != 500 || len(res.LateAtNS) != 500 {
		t.Fatalf("%d lateness samples at %d offsets, want one per request", len(res.LateNS), len(res.LateAtNS))
	}
}

func TestPreloadResendsShedSets(t *testing.T) {
	spec := Spec{Keys: 200, ValueSize: 64, Conns: 1}
	addr := fakeServer(t, false, 70) // more than one sweep chunk's worth
	if err := Preload(addr, spec); err != nil {
		t.Fatal(err)
	}
	vers, err := ReadBack(addr, spec)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range vers {
		if v != 1 {
			t.Fatalf("key %d holds v%d after preload", k, v)
		}
	}
	if err := Preload(fakeServer(t, false, 1000), spec); err == nil {
		t.Fatal("a server that refuses everything was preloaded")
	}
}
