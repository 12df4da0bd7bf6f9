package sysprobe

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses; utime and
	// stime are fields 14 and 15 counted from the real line's start.
	line := "4242 (ptm serve) x) S 1 4242 4242 0 -1 4194560 1891 0 0 0 137 52 0 0 20 0 7 0 5189233 1270382592 4404 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := (137 + 52) * 10 * time.Millisecond; got != want {
		t.Fatalf("CPU = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("short stat line parsed")
	}
	if _, err := parseStatCPU([]byte("no command field")); err == nil {
		t.Fatal("stat line without a command parsed")
	}
}

func TestParseStatus(t *testing.T) {
	status := "Name:\tptmserve\nVmPeak:\t 1240608 kB\nVmHWM:\t   69888 kB\nVmRSS:\t   61200 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t48211\nnonvoluntary_ctxt_switches:\t97\n"
	st, err := parseStatus([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakRSSKiB != 69888 || st.VoluntaryCS != 48211 {
		t.Fatalf("parsed %+v", st)
	}
	if _, err := parseStatus([]byte("VmHWM:\tlots kB\n")); err == nil {
		t.Fatal("non-numeric VmHWM parsed")
	}
}

func TestOwnProcessIsReadable(t *testing.T) {
	pid := os.Getpid()
	if _, err := ProcCPU(pid); err != nil {
		t.Fatal(err)
	}
	if rss, err := ProcPeakRSS(pid); err != nil || rss <= 0 {
		t.Fatalf("peak RSS %d, %v", rss, err)
	}
	if _, err := ProcVoluntarySwitches(pid); err != nil {
		t.Fatal(err)
	}
}

func fixture(t *testing.T, name string) []byte {
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseSnapshot(t *testing.T) {
	s, err := ParseSnapshot(fixture(t, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["srv_batched_ops"] != 9300 || s.Counters["srv_batches"] != 1200 || s.Counters["commits"] != 1204 {
		t.Fatalf("counters %v", s.Counters)
	}
	// Sum and count, not the log2 bucket tops the summary also carries.
	if s.AckBarrier != (Hist{Count: 410, SumNS: 2665000}) || s.JournalFlush != (Hist{Count: 410, SumNS: 2009000}) {
		t.Fatalf("histograms %+v %+v", s.AckBarrier, s.JournalFlush)
	}
	if _, err := ParseSnapshot([]byte(`{"queue_depth": 1}`)); err == nil {
		t.Fatal("a snapshot without counters parsed")
	}
	if _, err := ParseSnapshot([]byte(`not json`)); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestParseSweepCSV(t *testing.T) {
	rows, err := ParseSweepCSV(fixture(t, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != (CellRow{Rate: 925333, Commits: 1388}) || rows[1] != (CellRow{Rate: 3643333, Commits: 5465}) {
		t.Fatalf("Figure 4 rows %+v", rows)
	}
	rows, err = ParseSweepCSV(fixture(t, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != (CellRow{Rate: 392000}) || rows[1] != (CellRow{Rate: 43333}) {
		t.Fatalf("Figure 8 rows %+v", rows)
	}
	for _, bad := range []string{
		"figure,curve,requests_per_s\n",             // header only
		"figure,curve,latency\nFigure 8,x,12\n",     // no rate column
		"figure,curve,requests_per_s\nFigure 8,x\n", // short row
		"figure,curve,requests_per_s\nFigure 8,x,0\n",
		"figure,curve,requests_per_s\nFigure 8,x,fast\n",
	} {
		if _, err := ParseSweepCSV([]byte(bad)); err == nil {
			t.Errorf("bad CSV %q parsed", bad)
		}
	}
}

func TestSumMetricsReport(t *testing.T) {
	sum, err := SumMetricsReport(fixture(t, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Two cells: DRAM_ADR_U/1 and Optane_ADR_R/1 of the real report.
	for name, want := range map[string]int64{
		"commits":             2301 + 2461,
		"aborts":              0,
		"nvm_stores":          380424,
		"media_write_xplines": 36819,
		"cache_misses":        24828 + 24935,
		"wpq_max_occupancy":   3, // a high-water mark: the maximum, not the sum
	} {
		if sum[name] != want {
			t.Errorf("%s = %d, want %d", name, sum[name], want)
		}
	}
	if _, ok := sum["samples"]; ok {
		t.Error("the samples array was summed as a counter")
	}
	if _, err := SumMetricsReport([]byte(`{"schema":1,"cells":[]}`)); err == nil {
		t.Fatal("an empty report parsed")
	}
}
