// Package client is a minimal memcached-text-protocol client built
// for crash testing: every call reports not just success or failure
// but whether the server *might* have applied the operation. That
// third state is what a durable-linearizability checker needs — when
// a connection dies after the request bytes may have left the socket,
// the write is neither confirmed nor refuted, and the oracle must
// account for both worlds until a later read pins one.
//
// Retries are bounded, exponentially backed off with deterministic
// jitter (the soak harness needs reproducible schedules from a seed),
// and honest about idempotency: a retried set is idempotent, but each
// wire attempt of an incr that ends in an unknown outcome widens the
// set of states the key can be in, so Result counts attempts whose
// effect is unknown rather than collapsing them.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"goptm/internal/simtime"
)

// Config parameterizes a Client. Zero values select the defaults
// noted on each field.
type Config struct {
	Addr           string
	DialTimeout    time.Duration // 0: 500ms
	RequestTimeout time.Duration // per wire attempt; 0: 1s
	MaxTries       int           // wire attempts per call; 0: 3
	BackoffBase    time.Duration // 0: 10ms
	BackoffMax     time.Duration // 0: 250ms
	Seed           uint64        // jitter stream seed; 0: 1
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 500 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = time.Second
	}
	if c.MaxTries <= 0 {
		c.MaxTries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is the outcome of one client call, with the bookkeeping a
// linearizability oracle needs.
type Result struct {
	// Acked is true when the server positively confirmed the
	// operation (STORED, DELETED/NOT_FOUND, a value, END).
	Acked bool
	// MaybeApplied counts wire attempts whose request bytes may have
	// reached the server but whose response never arrived. Each such
	// attempt may or may not have mutated state. Zero with Acked
	// false means the operation definitely did not happen.
	MaybeApplied int
	// Tries is the number of wire attempts made.
	Tries int

	// Operation results, valid when Acked.
	Found  bool   // get/delete/incr: the key existed
	Value  []byte // get
	Flags  uint32 // get
	NewVal uint64 // incr: the post-increment value
}

// ErrExhausted is returned when every wire attempt failed.
var ErrExhausted = errors.New("client: retries exhausted")

// ServerError is an in-band SERVER_ERROR reply.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "client: SERVER_ERROR " + e.Msg }

// ClientError is an in-band CLIENT_ERROR or ERROR reply. These are
// not retried: the server parsed and rejected the request, so the
// outcome is definite.
type ClientError struct{ Msg string }

func (e *ClientError) Error() string { return "client: " + e.Msg }

// Client is a single-connection retrying client. Not safe for
// concurrent use; the soak harness runs one Client per worker.
type Client struct {
	cfg  Config
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	rng  uint64
}

// New returns a client for cfg; no connection is made until the
// first call.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, rng: cfg.Seed}
}

// Close drops the connection, if any.
func (c *Client) Close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// jitter steps the seeded jitter stream.
func (c *Client) jitter() uint64 { return simtime.SplitMix64Next(&c.rng) }

// backoff sleeps before retry attempt (1-based), exponentially
// growing and jittered to a uniform [0.5,1.0) fraction so a fleet of
// clients doesn't reconnect in lockstep after a kill.
func (c *Client) backoff(attempt int) {
	d := c.cfg.BackoffBase << uint(attempt-1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	frac := 0.5 + float64(c.jitter()>>11)/float64(1<<53)/2
	time.Sleep(time.Duration(float64(d) * frac))
}

// ensureConn dials if the connection is down. A dial failure is a
// definite no-op: no request bytes existed yet.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	return nil
}

// drop closes the connection so the next attempt re-dials. Required
// after any timeout: a late response left in flight would desync the
// request/response pairing on this connection.
func (c *Client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// roundTrip performs one wire attempt: write req, read one line.
// sent reports whether any request bytes may have reached the
// server — the caller's maybe-applied accounting hinges on it.
func (c *Client) roundTrip(req []byte) (line []byte, sent bool, err error) {
	if err := c.ensureConn(); err != nil {
		return nil, false, err
	}
	c.conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	if _, err := c.w.Write(req); err != nil {
		c.drop()
		return nil, true, err
	}
	if err := c.w.Flush(); err != nil {
		c.drop()
		return nil, true, err
	}
	line, err = c.r.ReadBytes('\n')
	if err != nil {
		c.drop()
		return nil, true, err
	}
	return bytes.TrimRight(line, "\r\n"), true, nil
}

// classify turns an in-band reply line into a terminal error, or nil
// for lines the per-op handlers interpret.
func classify(line []byte) error {
	switch {
	case bytes.HasPrefix(line, []byte("SERVER_ERROR ")):
		return &ServerError{Msg: string(line[len("SERVER_ERROR "):])}
	case bytes.HasPrefix(line, []byte("CLIENT_ERROR ")):
		return &ClientError{Msg: string(line)}
	case bytes.Equal(line, []byte("ERROR")):
		return &ClientError{Msg: "ERROR"}
	}
	return nil
}

// retriableServerError reports whether an in-band SERVER_ERROR is a
// definite rejection that is safe to retry. "busy" is the executor's
// admission-control reject: the request was never enqueued, so the
// attempt definitely did not apply.
func retriableServerError(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Msg == "busy"
}

// do runs the retry loop. parse consumes the first response line
// (and, via c.r, any further payload) and reports whether the call
// is complete; returning an error makes the outcome definite (no
// retry). mutating controls whether an attempt that dies mid-flight
// counts toward MaybeApplied.
func (c *Client) do(req []byte, mutating bool, parse func(line []byte, res *Result) error) (Result, error) {
	var res Result
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxTries; attempt++ {
		if attempt > 1 {
			c.backoff(attempt - 1)
		}
		res.Tries = attempt
		line, sent, err := c.roundTrip(req)
		if err != nil {
			if sent && mutating {
				// The request may be executing server-side right now;
				// the outcome of this attempt is permanently unknown.
				res.MaybeApplied++
			}
			lastErr = err
			continue
		}
		if err := classify(line); err != nil {
			if retriableServerError(err) {
				lastErr = err
				continue
			}
			if mutating {
				var se *ServerError
				if errors.As(err, &se) {
					// A non-busy SERVER_ERROR (e.g. "persistence
					// failure") means the transaction may have executed
					// even though the server refused to promise
					// durability.
					res.MaybeApplied++
				}
			}
			return res, err
		}
		if err := parse(line, &res); err != nil {
			return res, err
		}
		res.Acked = true
		return res, nil
	}
	return res, fmt.Errorf("%w: %v", ErrExhausted, lastErr)
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte, flags uint32) (Result, error) {
	req := fmt.Appendf(nil, "set %s %d 0 %d\r\n", key, flags, len(value))
	req = append(req, value...)
	req = append(req, '\r', '\n')
	return c.do(req, true, func(line []byte, res *Result) error {
		if !bytes.Equal(line, []byte("STORED")) {
			return fmt.Errorf("client: unexpected set reply %q", line)
		}
		return nil
	})
}

// Get fetches key. Found is false when the key is absent.
func (c *Client) Get(key string) (Result, error) {
	req := fmt.Appendf(nil, "get %s\r\n", key)
	return c.do(req, false, func(line []byte, res *Result) error {
		if bytes.Equal(line, []byte("END")) {
			return nil // miss
		}
		fields := bytes.Fields(line)
		if len(fields) != 4 || !bytes.Equal(fields[0], []byte("VALUE")) {
			return fmt.Errorf("client: unexpected get reply %q", line)
		}
		flags, err := strconv.ParseUint(string(fields[2]), 10, 32)
		if err != nil {
			return fmt.Errorf("client: bad get flags %q", line)
		}
		n, err := strconv.Atoi(string(fields[3]))
		if err != nil || n < 0 {
			return fmt.Errorf("client: bad get length %q", line)
		}
		payload := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, payload); err != nil {
			c.drop()
			return fmt.Errorf("client: truncated get payload: %w", err)
		}
		end, err := c.r.ReadBytes('\n')
		if err != nil || !bytes.Equal(bytes.TrimRight(end, "\r\n"), []byte("END")) {
			c.drop()
			return fmt.Errorf("client: missing END after value")
		}
		res.Found = true
		res.Value = payload[:n]
		res.Flags = uint32(flags)
		return nil
	})
}

// Delete removes key. Found reports whether it existed.
func (c *Client) Delete(key string) (Result, error) {
	req := fmt.Appendf(nil, "delete %s\r\n", key)
	return c.do(req, true, func(line []byte, res *Result) error {
		switch {
		case bytes.Equal(line, []byte("DELETED")):
			res.Found = true
		case bytes.Equal(line, []byte("NOT_FOUND")):
		default:
			return fmt.Errorf("client: unexpected delete reply %q", line)
		}
		return nil
	})
}

// Incr adds delta to the numeric value at key. Found reports whether
// the key existed; NewVal is the post-increment value when it did.
func (c *Client) Incr(key string, delta uint64) (Result, error) {
	req := fmt.Appendf(nil, "incr %s %d\r\n", key, delta)
	return c.do(req, true, func(line []byte, res *Result) error {
		if bytes.Equal(line, []byte("NOT_FOUND")) {
			return nil
		}
		v, err := strconv.ParseUint(string(line), 10, 64)
		if err != nil {
			return fmt.Errorf("client: unexpected incr reply %q", line)
		}
		res.Found = true
		res.NewVal = v
		return nil
	})
}
