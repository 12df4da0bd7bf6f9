package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"time"
)

// server is one ptmserve child process.
type server struct {
	cmd       *exec.Cmd
	addr      string // from the "serving on" line
	telemetry string // from the "telemetry on" line; empty without -telemetry
	stderr    bytes.Buffer
	exited    chan struct{} // closed once stdout reaches EOF
}

var (
	servingRE   = regexp.MustCompile(`^ptmserve: serving on (\S+) `)
	telemetryRE = regexp.MustCompile(`^ptmserve: telemetry on http://(\S+) `)
)

// startServer launches ptmserve on a loopback port of its choosing and
// returns once it accepts connections (and, with -telemetry among
// args, once the telemetry listener is up too).
func startServer(bin string, args ...string) (*server, error) {
	wantTelemetry := false
	for _, a := range args {
		if a == "-telemetry" {
			wantTelemetry = true
		}
	}
	s := &server{exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	// The scanner keeps reading to EOF so the child never blocks on a
	// full pipe; only the two announcements are passed on, so a buffer
	// of two never blocks the scanner either.
	type announce struct {
		re   *regexp.Regexp
		addr string
	}
	found := make(chan announce, 2)
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			for _, re := range []*regexp.Regexp{servingRE, telemetryRE} {
				if m := re.FindStringSubmatch(sc.Text()); m != nil {
					found <- announce{re, m[1]}
				}
			}
		}
	}()
	timeout := time.After(60 * time.Second)
	for s.addr == "" || (wantTelemetry && s.telemetry == "") {
		select {
		case a := <-found:
			if a.re == servingRE {
				s.addr = a.addr
			} else {
				s.telemetry = a.addr
			}
		case <-s.exited:
			s.cmd.Wait()
			return nil, fmt.Errorf("ptmserve exited before serving: %s", bytes.TrimSpace(s.stderr.Bytes()))
		case <-timeout:
			s.kill()
			return nil, fmt.Errorf("ptmserve did not start serving within 60 s")
		}
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill sends SIGKILL — the host failure the journal exists for — and
// waits for the process to be gone.
func (s *server) kill() {
	s.cmd.Process.Signal(os.Kill)
	<-s.exited
	s.cmd.Wait()
}
