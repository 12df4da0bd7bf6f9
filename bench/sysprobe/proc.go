// Package sysprobe reads what the operating system and the program's
// own artifacts say about a run: /proc counters of a child process,
// ptmserve's /snapshot document, and ptmbench's CSV and metrics
// report. It parses only the fields the benchmark uses.
package sysprobe

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space on every architecture.
const clockTick = 10 * time.Millisecond

// ProcCPU returns the CPU time (user + system, all threads) process
// pid has consumed so far.
func ProcCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(data []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("sysprobe: no command field in stat line")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("sysprobe: short stat line (%d fields after command)", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("sysprobe: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// SelfCPU is the calling process's own utime+stime so far.
func SelfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid who and pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ResetPeakRSS returns the calling process's unused memory to the
// system and resets its peak-RSS mark to what is left. Linux carries
// that mark across exec, and a child started by vfork shares its
// parent's memory until then, so a child's Rusage.Maxrss is never below
// its parent's peak: after the kv workloads' samples, the suite's
// sim_sweep cells all reported this process's 200 MiB, not their own 100.
func ResetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// ProcStatus is the part of /proc/<pid>/status the benchmark reads.
type ProcStatus struct {
	PeakRSSKiB  int64 // VmHWM
	VoluntaryCS int64 // voluntary_ctxt_switches
}

// ProcPeakRSS returns process pid's peak resident set (VmHWM) in KiB.
func ProcPeakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	st, err := parseStatus(data)
	return st.PeakRSSKiB, err
}

// ProcVoluntarySwitches sums voluntary context switches over every
// thread of pid: /proc/<pid>/status alone covers only the main thread,
// and a Go server parks on all of them.
func ProcVoluntarySwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("sysprobe: no tasks for pid %d", pid)
	}
	var sum int64
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // a thread that exited between the glob and the read
		}
		st, err := parseStatus(data)
		if err != nil {
			return 0, err
		}
		sum += st.VoluntaryCS
	}
	return sum, nil
}

func parseStatus(data []byte) (ProcStatus, error) {
	var st ProcStatus
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "VmHWM":
			dst = &st.PeakRSSKiB
		case "voluntary_ctxt_switches":
			dst = &st.VoluntaryCS
		default:
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return st, fmt.Errorf("sysprobe: empty %s line", name)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return st, fmt.Errorf("sysprobe: %s: %v", name, err)
		}
		*dst = v
	}
	return st, nil
}
