package server

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// expectedStatKeys is the full stats schema for a server with shards
// shards — the machine-checkable contract: every key always present.
func expectedStatKeys(shards int) []string {
	keys := []string{
		"batched_ops_total", "batches_total", "cmd_total",
		"queue_depth", "shed_total", "txn_aborts", "txn_commits",
	}
	for i := 0; i < shards; i++ {
		keys = append(keys,
			fmt.Sprintf("shard%d_queue_depth", i),
			fmt.Sprintf("shard%d_shed", i),
		)
	}
	sort.Strings(keys)
	return keys
}

// readStats sends the stats command and parses every response line.
func readStats(t *testing.T, conn net.Conn, r *bufio.Reader) map[string]int64 {
	t.Helper()
	fmt.Fprintf(conn, "stats\r\n")
	got := map[string]int64{}
	var order []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "STAT" {
			t.Fatalf("malformed stats line: %q", line)
		}
		v, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			t.Fatalf("stats value for %s is not an integer: %q", fields[1], fields[2])
		}
		got[fields[1]] = v
		order = append(order, fields[1])
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("stats keys not in sorted order: %v", order)
	}
	return got
}

func assertStatKeys(t *testing.T, got map[string]int64, shards int) {
	t.Helper()
	want := expectedStatKeys(shards)
	if len(got) != len(want) {
		t.Errorf("stats has %d keys, want %d", len(got), len(want))
	}
	for _, k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("stats missing key %s", k)
		}
	}
	for k := range got {
		i := sort.SearchStrings(want, k)
		if i >= len(want) || want[i] != k {
			t.Errorf("stats has unexpected key %s", k)
		}
	}
}

// TestStatsSchemaStatic: the stats response carries the complete
// sorted key set — and nothing else: the batch cap and window are
// configuration, not per-shard state, so no gauge echoes them.
func TestStatsSchemaStatic(t *testing.T) {
	srv, _, conn, r := pipeServer(t, StoreConfig{Shards: 2},
		ExecConfig{DeadlineNS: -1, MaxBatch: 4, BatchWindowNS: 1500, IdleSleep: 20 * time.Microsecond})
	_ = srv

	fmt.Fprintf(conn, "set a 0 0 1\r\nx\r\n")
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "STORED" {
		t.Fatalf("set: %q", line)
	}

	got := readStats(t, conn, r)
	assertStatKeys(t, got, 2)
	if got["cmd_total"] != 1 {
		t.Errorf("cmd_total = %d, want 1", got["cmd_total"])
	}
}
