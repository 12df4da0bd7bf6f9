package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// The telemetry plane is an opt-in localhost HTTP listener that makes
// a running ptmserve observable without stopping it: the machine's
// counter registry plus the serving layer's live gauges and latency
// summaries, in two renderings of one Executor.Snapshot —
//
//   GET /metrics  — Prometheus text exposition (scrapable);
//   GET /snapshot — the same state as one JSON document;
//   GET /healthz  — liveness.
//
// It is deliberately not a management surface: read-only, loopback
// only, off by default. StartTelemetry refuses any non-loopback bind
// address so a stray flag can never expose counters to the network.

// Telemetry is a running telemetry listener.
type Telemetry struct {
	srv  *http.Server
	wg   sync.WaitGroup
	addr string
}

// StartTelemetry binds the telemetry listener at addr (host defaults
// to 127.0.0.1; the host must resolve to a loopback address) and
// serves until Close.
func StartTelemetry(addr string, exec *Executor) (*Telemetry, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad address %q: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	if !isLoopbackHost(host) {
		return nil, fmt.Errorf("telemetry: refusing non-loopback bind %q (the endpoint is localhost-only)", addr)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		exec.Snapshot().writeProm(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(exec.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})

	t := &Telemetry{
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr().String(),
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.srv.Serve(ln)
	}()
	return t, nil
}

// isLoopbackHost accepts "localhost" and literal loopback IPs.
func isLoopbackHost(host string) bool {
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// Addr reports the bound address (useful with port 0).
func (t *Telemetry) Addr() string {
	if t == nil {
		return ""
	}
	return t.addr
}

// Close shuts the listener down and waits for the serve goroutine —
// the SIGTERM path runs it after the final flight-recorder dump, and
// the shutdown test asserts no goroutine survives it.
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	t.srv.Close()
	t.wg.Wait()
}
