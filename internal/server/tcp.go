package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
)

// The TCP frontend speaks the memcached text protocol subset the
// paper's serving experiment exercises: get, set, delete, incr, stats,
// quit. Connection goroutines are ordinary host goroutines — they
// never touch the simulated machine directly.
//
// Each connection is *pipelined*: a reader goroutine parses ahead,
// submitting every parsed command to the executor immediately, while a
// writer goroutine renders responses strictly in command order (FIFO
// per connection, as the memcached protocol requires). A single
// client that writes a burst of commands therefore has many requests
// in flight at once — which is what lets one connection fill
// group-commit batches; the old parse→submit→block-per-command loop
// could never present more than one request to a shard at a time.
// Multi-key gets fan out the same way: every key's request is
// submitted to its shard before the first response is awaited, so
// cross-shard reads proceed concurrently and the replies are gathered
// back in key order.

// maxPipeline bounds parsed-ahead commands per connection; the reader
// blocks once the writer falls this far behind, so one hostile
// connection cannot queue unbounded parsed state.
const maxPipeline = 128

// maxLineBytes bounds one command line (payloads are bounded
// separately, by MaxValueBytes): a client that never sends a newline
// cannot make the server buffer without limit. 8 KiB fits a 32-key
// multi-get of memcached's maximum 250-byte keys.
const maxLineBytes = 8192

// pending is one parsed command waiting its turn on the response
// stream: the submitted requests to await (in submit order) and the
// render closure that writes the response once they complete. A nil
// render writes nothing (noreply). quit closes the connection after
// rendering.
type pending struct {
	wait   []*Request
	render func(w *bufio.Writer)
	quit   bool
}

// Server is the TCP frontend over a Store and its Executor.
type Server struct {
	st   *Store
	exec *Executor
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// Serve starts accepting on ln. It owns ln and the executor: Shutdown
// closes both.
func Serve(st *Store, exec *Executor, ln net.Listener) *Server {
	srv := &Server{st: st, exec: exec, ln: ln, conns: make(map[net.Conn]struct{})}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv
}

// Addr returns the listener address (tests bind to port 0).
func (srv *Server) Addr() net.Addr { return srv.ln.Addr() }

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			conn.Close()
			return
		}
		srv.conns[conn] = struct{}{}
		srv.mu.Unlock()
		srv.wg.Add(1)
		go srv.serveConn(conn)
	}
}

// Shutdown drains gracefully: stop accepting, close the connections,
// wait for in-flight commands, drain the executor. The store is then
// quiescent and can be crashed and imaged.
func (srv *Server) Shutdown() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	srv.closed = true
	conns := make([]net.Conn, 0, len(srv.conns))
	for c := range srv.conns {
		conns = append(conns, c)
	}
	srv.mu.Unlock()
	srv.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	srv.wg.Wait()
	srv.exec.Drain()
}

var crlf = []byte("\r\n")

// serveConn is the reader half of a connection: parse commands ahead,
// submit their requests, and hand each parsed command to the writer
// in order. Responses are the writer's job.
func (srv *Server) serveConn(conn net.Conn) {
	defer srv.wg.Done()
	defer func() {
		srv.mu.Lock()
		delete(srv.conns, conn)
		srv.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, maxLineBytes)
	pend := make(chan *pending, maxPipeline)
	done := make(chan struct{})
	srv.wg.Add(1)
	go srv.writeLoop(conn, pend, done)
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			pend <- respond("CLIENT_ERROR line too long\r\n")
			break
		}
		if err != nil {
			break
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			continue
		}
		// ReadSlice's result is only valid until the next read, and keys
		// alias the line for the life of their requests: copy it once.
		line = bytes.Clone(line)
		// Fields of a whitespace-only line is empty even though the line
		// is not; dispatching would index fields[0].
		fields := bytes.Fields(line)
		if len(fields) == 0 {
			pend <- respond("ERROR\r\n")
			continue
		}
		p, fatal := srv.parse(fields, r, pend)
		if p != nil {
			pend <- p
		}
		if fatal != nil || (p != nil && p.quit) {
			break // connection can no longer be parsed, or quit
		}
	}
	close(pend)
	// Let the writer finish rendering what was pipelined before the
	// deferred close tears the connection down under it.
	<-done
}

// writeLoop is the writer half: render responses strictly in parse
// order, waiting for each command's requests to complete first.
// Responses for a pipelined burst are flushed together once the
// pipeline momentarily empties. After a write error the loop keeps
// draining the channel (never stranding the reader on a full
// pipeline) without rendering.
func (srv *Server) writeLoop(conn net.Conn, pend chan *pending, done chan struct{}) {
	defer srv.wg.Done()
	defer close(done)
	w := bufio.NewWriter(conn)
	broken := false
	for p := range pend {
		if !broken {
			for _, req := range p.wait {
				<-req.Done
			}
			if p.render != nil {
				p.render(w)
			}
			if len(pend) == 0 || p.quit {
				if err := w.Flush(); err != nil {
					broken = true
				}
			}
		}
		if p.quit && !broken {
			// Unblock the reader (it stopped at quit already) and refuse
			// anything a misbehaving client pipelined after quit.
			broken = true
			conn.Close()
		}
	}
	if !broken {
		w.Flush()
	}
}

// respond builds a pending that waits on nothing and writes a fixed
// protocol reply.
func respond(s string) *pending {
	return &pending{render: func(w *bufio.Writer) { io.WriteString(w, s) }}
}

// parse consumes one command (and any payload) from the stream and
// returns the pending response. A non-nil fatal means the connection
// can no longer be parsed and must drop; protocol-level problems are
// reported in-band (ERROR / CLIENT_ERROR ...) via the pending.
func (srv *Server) parse(fields [][]byte, r *bufio.Reader, pend chan *pending) (p *pending, fatal error) {
	cmd := string(fields[0])
	switch cmd {
	case "quit":
		return &pending{quit: true}, nil

	case "get", "gets":
		if len(fields) < 2 {
			return respond("ERROR\r\n"), nil
		}
		// Fan every key out to its shard before awaiting any reply:
		// cross-shard keys execute concurrently, and the writer gathers
		// responses back in request order.
		keys := fields[1:]
		p := &pending{wait: make([]*Request, 0, len(keys))}
		for _, key := range keys {
			req := &Request{Op: OpGet, Key: key, Done: make(chan struct{})}
			if !srv.exec.Submit(req) {
				break
			}
			p.wait = append(p.wait, req)
		}
		p.render = func(w *bufio.Writer) {
			if len(p.wait) < len(keys) {
				fmt.Fprintf(w, "SERVER_ERROR busy\r\n")
				return
			}
			for i, req := range p.wait {
				if req.Shed || req.Err == ErrDraining {
					fmt.Fprintf(w, "SERVER_ERROR busy\r\n")
					return
				}
				if errors.Is(req.Err, ErrDurable) {
					fmt.Fprintf(w, "SERVER_ERROR persistence failure\r\n")
					return
				}
				if req.Found {
					fmt.Fprintf(w, "VALUE %s %d %d\r\n", keys[i], req.ValFlags, len(req.Val))
					w.Write(req.Val)
					w.Write(crlf)
				}
			}
			fmt.Fprintf(w, "END\r\n")
		}
		return p, nil

	case "set":
		// set <key> <flags> <exptime> <bytes> [noreply]
		if len(fields) < 5 {
			return respond("ERROR\r\n"), nil
		}
		flags, ferr := strconv.ParseUint(string(fields[2]), 10, 32)
		nbytes, berr := strconv.Atoi(string(fields[4]))
		if ferr != nil || berr != nil || nbytes < 0 {
			return respond("CLIENT_ERROR bad command line format\r\n"), nil
		}
		noreply := len(fields) >= 6 && string(fields[5]) == "noreply"
		if nbytes > srv.st.cfg.MaxValueBytes {
			// The declared length is attacker-controlled: consume the
			// payload to keep the stream parseable, but never allocate
			// for it (a hostile "set k 0 0 1099511627776" must not OOM
			// the server). The rejection goes to the writer *before* the
			// discard, so a client that never streams the payload (or
			// streams it slowly) still learns it was rejected.
			if !noreply {
				pend <- respond("SERVER_ERROR object too large for cache\r\n")
			}
			if _, err := io.CopyN(io.Discard, r, int64(nbytes)+2); err != nil {
				return nil, err
			}
			return nil, nil
		}
		// The payload follows regardless of validity; it must be
		// consumed to keep the stream parseable. A disconnect before the
		// full payload+CRLF arrives returns fatal and drops the
		// connection *without submitting* — a half-written body can
		// never reach a shard queue, so nothing is ever
		// acked-but-unsubmitted.
		payload := make([]byte, nbytes+2)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		if !bytes.HasSuffix(payload, crlf) {
			return respond("CLIENT_ERROR bad data chunk\r\n"), nil
		}
		val := payload[:nbytes]
		req := &Request{Op: OpSet, Key: fields[1], Value: val, Flags: uint32(flags)}
		return srv.submitCmd(req, noreply, func(w *bufio.Writer) {
			if req.Err != nil {
				fmt.Fprintf(w, "CLIENT_ERROR %v\r\n", req.Err)
			} else {
				fmt.Fprintf(w, "STORED\r\n")
			}
		}), nil

	case "delete":
		if len(fields) < 2 {
			return respond("ERROR\r\n"), nil
		}
		noreply := len(fields) >= 3 && string(fields[2]) == "noreply"
		req := &Request{Op: OpDelete, Key: fields[1]}
		return srv.submitCmd(req, noreply, func(w *bufio.Writer) {
			if req.Found {
				fmt.Fprintf(w, "DELETED\r\n")
			} else {
				fmt.Fprintf(w, "NOT_FOUND\r\n")
			}
		}), nil

	case "incr":
		if len(fields) < 3 {
			return respond("ERROR\r\n"), nil
		}
		delta, derr := strconv.ParseUint(string(fields[2]), 10, 64)
		if derr != nil {
			return respond("CLIENT_ERROR invalid numeric delta argument\r\n"), nil
		}
		noreply := len(fields) >= 4 && string(fields[3]) == "noreply"
		req := &Request{Op: OpIncr, Key: fields[1], Delta: delta}
		return srv.submitCmd(req, noreply, func(w *bufio.Writer) {
			switch {
			case req.Err != nil:
				fmt.Fprintf(w, "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
			case !req.Found:
				fmt.Fprintf(w, "NOT_FOUND\r\n")
			default:
				fmt.Fprintf(w, "%d\r\n", req.NewVal)
			}
		}), nil

	case "stats":
		// Rendered in turn, so the numbers reflect every earlier command
		// on this connection.
		return &pending{render: func(w *bufio.Writer) { srv.exec.Snapshot().writeStats(w) }}, nil

	default:
		return respond("ERROR\r\n"), nil
	}
}

// submitCmd submits one mutation request and builds its pending: a
// rejected or shed request renders SERVER_ERROR busy, one whose
// durable-ack barrier failed SERVER_ERROR persistence failure, anything
// else through render; noreply renders nothing (and, with no response
// to order, does not hold the response stream — the request is
// fire-and-forget).
func (srv *Server) submitCmd(req *Request, noreply bool, render func(w *bufio.Writer)) *pending {
	if !noreply {
		req.Done = make(chan struct{})
	}
	if !srv.exec.Submit(req) {
		if noreply {
			return nil
		}
		return respond("SERVER_ERROR busy\r\n")
	}
	if noreply {
		return nil
	}
	return &pending{wait: []*Request{req}, render: func(w *bufio.Writer) {
		switch {
		case req.Shed || req.Err == ErrDraining:
			fmt.Fprintf(w, "SERVER_ERROR busy\r\n")
		case errors.Is(req.Err, ErrDurable):
			fmt.Fprintf(w, "SERVER_ERROR persistence failure\r\n")
		default:
			render(w)
		}
	}}
}
