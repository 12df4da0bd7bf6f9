package soak

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"goptm/internal/server"
	"goptm/internal/server/client"
)

// procTarget soaks a real ptmserve process: real sockets, real
// signals, real files. This is the mode where the durable-ack
// journal earns its keep — SIGKILL destroys the simulated NVM (it
// lives in the process's memory) and only what reached the image and
// WAL files survives.
type procTarget struct {
	cfg  Config
	addr string

	mu     sync.Mutex
	cmd    *exec.Cmd
	waitCh chan error
	drain  chan struct{} // closed when the process logs the drain start

	killed  bool           // a fault was injected since the last awaitDead
	harvest *FlightHarvest // sidecar tail from the last faulted cycle
}

func newProcTarget(cfg Config) (*procTarget, error) {
	if cfg.Bin == "" {
		return nil, fmt.Errorf("soak: process mode needs -bin (path to ptmserve)")
	}
	if _, err := os.Stat(cfg.Bin); err != nil {
		return nil, fmt.Errorf("soak: ptmserve binary: %w", err)
	}
	if cfg.Image == "" {
		return nil, fmt.Errorf("soak: process mode needs -image")
	}
	// Reserve a port once and reuse it every cycle, so clients and
	// the verifier always know where the service lives.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	return &procTarget{cfg: cfg, addr: addr}, nil
}

func (p *procTarget) start() error {
	args := []string{
		"-listen", p.addr,
		"-image", p.cfg.Image,
		"-algo", p.cfg.Algo,
		"-domain", p.cfg.Domain,
		"-shards", strconv.Itoa(p.cfg.Shards),
		"-heap", strconv.FormatUint(p.cfg.Heap, 10),
		"-deadline", "-1", // soak wants every accepted op executed, not shed
	}
	cmd := exec.Command(p.cfg.Bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	drain := make(chan struct{})
	go watchStdout(stdout, drain, p.cfg.Logf)
	if err := cmd.Start(); err != nil {
		return err
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()

	p.mu.Lock()
	p.cmd, p.waitCh, p.drain = cmd, waitCh, drain
	p.mu.Unlock()

	// Ready when the port answers. Recovery (image + WAL replay) runs
	// before the listener opens, so a successful dial means recovery
	// succeeded; an exit before that means it was refused.
	deadlineAt := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", p.addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case werr := <-waitCh:
			return fmt.Errorf("ptmserve exited during startup (recovery refused?): %v", werr)
		default:
		}
		if time.Now().After(deadlineAt) {
			cmd.Process.Kill()
			return fmt.Errorf("ptmserve not ready after 10s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// watchStdout forwards the child's log and closes drainCh when the
// shutdown drain begins — the save-race fault times its SIGKILL off
// that line to land inside the Crash/SaveImage window.
func watchStdout(r io.Reader, drainCh chan struct{}, logf func(string, ...any)) {
	sc := bufio.NewScanner(r)
	closed := false
	for sc.Scan() {
		line := sc.Text()
		logf("  [ptmserve] %s", line)
		if !closed && strings.Contains(line, "draining") {
			close(drainCh)
			closed = true
		}
	}
}

func (p *procTarget) verifyGet(key string) (bool, uint64, error) {
	c := client.New(client.Config{Addr: p.addr, Seed: 7, MaxTries: 5})
	defer c.Close()
	res, err := c.Get(key)
	if err != nil {
		return false, 0, err
	}
	if !res.Found {
		return false, 0, nil
	}
	v, err := strconv.ParseUint(string(res.Value), 10, 64)
	if err != nil {
		return false, 0, fmt.Errorf("non-numeric payload %q", res.Value)
	}
	return true, v, nil
}

// procTransport adapts the retrying client to the engine's outcome
// vocabulary.
type procTransport struct{ c *client.Client }

func (p *procTarget) transport(i int, seed uint64) transport {
	return &procTransport{c: client.New(client.Config{
		Addr: p.addr, Seed: seed,
		// Tight budgets: during a kill the server is simply gone, and
		// a worker must fail fast to notice the stop signal.
		DialTimeout:    300 * time.Millisecond,
		RequestTimeout: time.Second,
		MaxTries:       3,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     100 * time.Millisecond,
	})}
}

func (t *procTransport) close() { t.c.Close() }

// toOutcome folds a client result: acked, definitely-not-applied, or
// unknown (res.MaybeApplied attempts in flight when the line died).
func toOutcome(res client.Result, err error) outcome {
	if err == nil && res.Acked {
		return outcome{acked: true}
	}
	return outcome{maybe: res.MaybeApplied}
}

func (t *procTransport) set(key string, val uint64) outcome {
	res, err := t.c.Set(key, strconv.AppendUint(nil, val, 10), 0)
	return toOutcome(res, err)
}

func (t *procTransport) get(key string) (outcome, bool, uint64) {
	res, err := t.c.Get(key)
	o := toOutcome(res, err)
	if !o.acked || !res.Found {
		return o, false, 0
	}
	v, perr := strconv.ParseUint(string(res.Value), 10, 64)
	if perr != nil {
		// A non-numeric payload can only mean a torn value — surface
		// it as an impossible observation.
		return o, true, ^uint64(0)
	}
	return o, true, v
}

func (t *procTransport) incr(key string, delta uint64) (outcome, bool, uint64) {
	res, err := t.c.Incr(key, delta)
	return toOutcome(res, err), res.Found, res.NewVal
}

func (t *procTransport) del(key string) (outcome, bool) {
	res, err := t.c.Delete(key)
	return toOutcome(res, err), res.Found
}

func (p *procTarget) kill(mode string, rng *prand) error {
	p.mu.Lock()
	cmd, drain := p.cmd, p.drain
	p.killed = true
	p.mu.Unlock()
	switch mode {
	case "kill":
		return cmd.Process.Kill()
	case "term":
		return cmd.Process.Signal(syscall.SIGTERM)
	case "term-race":
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		time.Sleep(rng.durBetween(0, 250*time.Millisecond))
		cmd.Process.Kill() // may race a clean exit; that's the point
		return nil
	case "save-race":
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case <-drain: // the drain has begun; the image save is imminent
		case <-time.After(2 * time.Second):
		}
		time.Sleep(rng.durBetween(0, 20*time.Millisecond))
		cmd.Process.Kill()
		return nil
	}
	return fmt.Errorf("unknown kill mode %q", mode)
}

func (p *procTarget) awaitDead() error {
	p.mu.Lock()
	cmd, waitCh := p.cmd, p.waitCh
	p.mu.Unlock()
	var err error
	select {
	case <-waitCh:
		// Killed processes exit non-zero by design.
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		<-waitCh
		err = fmt.Errorf("ptmserve ignored its signal for 15s")
	}
	// Harvest the flight sidecar the dead process left behind — but
	// only after an injected fault, so the final clean shutdown cannot
	// overwrite the last pre-kill window with its drained state.
	p.mu.Lock()
	if p.killed {
		p.killed = false
		if h := harvestFlight(p.cfg.Image, p.cfg.FlightTail); h != nil {
			p.harvest = h
		}
		if p.cfg.NoDurable {
			// The weakened target: the fault takes the journal with it,
			// so the restart finds only the last saved image, and every
			// write acked since then is lost. A clean exit already
			// removed its journal; this remove then finds nothing.
			os.Remove(server.WALPath(p.cfg.Image))
		}
	}
	p.mu.Unlock()
	return err
}

// flight reports the sidecar tail harvested after the last fault.
func (p *procTarget) flight() *FlightHarvest {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.harvest
}

func (p *procTarget) shutdown() error {
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return p.awaitDead()
}
