package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"c2nn/internal/simengine"
)

// TestWatchWindows drives the watch table's window helper over
// synthetic lifetime snapshots.
func TestWatchWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	snap := func(sec float64, cycles, dirty, skipped int64) simengine.StatsSnapshot {
		return simengine.StatsSnapshot{
			Time:   t0.Add(time.Duration(sec * float64(time.Second))),
			Cycles: cycles, DirtyClusters: dirty, SkippedClusters: skipped,
		}
	}
	w := watchWindows{prev: snap(0, 100, 50, 50), prevTog: []int64{5, 5, 5, 5, 5, 5, 5}}

	// The first window seeds the EWMA; the skip rate is the window's
	// (30 of 40 skipped), not the lifetime's (80 of 140).
	win := w.next(snap(1, 300, 60, 80), []int64{5, 8, 5, 9, 8, 6, 7})
	if win.Cycles != 200 || win.CyclesPerSec != 200 || win.EWMA != 200 {
		t.Errorf("first window: cycles %d, rate %v, ewma %v; want 200, 200, 200", win.Cycles, win.CyclesPerSec, win.EWMA)
	}
	if win.Dirty != 10 || win.Skipped != 30 || win.SkipRatePct != 75 {
		t.Errorf("first window: dirty/skipped %d/%d at %v%%, want 10/30 at 75%%", win.Dirty, win.Skipped, win.SkipRatePct)
	}
	// Window toggles 0,3,0,4,3,1,2: busiest first, the tie between roots
	// 1 and 4 in root order, quiet roots 0 and 2 omitted, capped at
	// watchTopRoots.
	if want := []int{3, 1, 4, 6, 5}; !reflect.DeepEqual(win.Roots, want) {
		t.Errorf("busiest roots %v, want %v", win.Roots, want)
	}
	if want := []int64{4, 3, 3, 2, 1}; !reflect.DeepEqual(win.Toggles, want) {
		t.Errorf("window toggles %v, want %v", win.Toggles, want)
	}

	// The second window blends into the EWMA; a window with no
	// dispatches reports no skip rate and a quiet window no roots.
	win = w.next(snap(3, 500, 60, 80), []int64{5, 8, 5, 9, 8, 6, 7})
	if want := watchEWMAAlpha*100 + (1-watchEWMAAlpha)*200; win.CyclesPerSec != 100 || win.EWMA != want {
		t.Errorf("second window: rate %v, ewma %v; want 100, %v", win.CyclesPerSec, win.EWMA, want)
	}
	if win.SkipRatePct != 0 || len(win.Roots) != 0 {
		t.Errorf("idle window: skip rate %v, roots %v; want 0 and none", win.SkipRatePct, win.Roots)
	}
}

// TestWatchSmoke drives `c2nn watch -serve` end to end: two /metrics
// scrapes with live traffic between them see the cluster-skip, kernel
// dispatch and engine cycle counters grow and no retired engine gauge;
// /samples.json holds a series; SIGQUIT dumps the flight recorder
// without stopping the run (the scrapes come after it), and SIGINT
// stops it, dumping again.
func TestWatchSmoke(t *testing.T) {
	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.json")

	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = wr
	done := make(chan error, 1)
	go func() {
		done <- runWatch([]string{"-tb", "../../testbenches/uart_smoke.tb", "-L", "4",
			"-serve", "127.0.0.1:0", "-interval", "50ms", "-quiet",
			"-flight", flightPath, "-flight-events", "65536", "-duration", "60s"})
	}()
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	armed, stopped := false, false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if armed {
			syscall.Kill(os.Getpid(), syscall.SIGINT)
		}
		err := <-done
		os.Stderr = stderr
		wr.Close()
		if err != nil {
			t.Errorf("watch: %v", err)
		}
	}
	defer stop()
	// await returns the first stderr line containing substr.
	await := func(substr string) string {
		t.Helper()
		timeout := time.After(30 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("watch stderr closed before %q", substr)
				}
				if strings.Contains(line, substr) {
					return line
				}
			case <-timeout:
				t.Fatalf("no %q line from watch", substr)
			}
		}
	}

	_, url, _ := strings.Cut(await("telemetry on http://"), "http://")
	addr, _, _ := strings.Cut(url, "/")
	base := "http://" + addr
	// The run loop's signal handlers are installed once watch names the
	// circuit; only then may the test signal its own process.
	await("ctrl-c stops")
	armed = true
	// The recorder is a ring that spans overwrite, so the engine's
	// create event is asked for in a dump taken as the run starts.
	syscall.Kill(os.Getpid(), syscall.SIGQUIT)
	await("(SIGQUIT)")
	if n := flightEvents(t, flightPath, "create"); n == 0 {
		t.Error("SIGQUIT flight dump holds no create event")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	// scrape sums the /metrics samples whose names start with prefix.
	scrape := func() (body string, sum func(prefix string) float64) {
		body = get("/metrics")
		return body, func(prefix string) float64 {
			total := 0.0
			for _, l := range strings.Split(body, "\n") {
				if f := strings.Fields(l); len(f) == 2 && strings.HasPrefix(f[0], prefix) {
					v, err := strconv.ParseFloat(f[1], 64)
					if err != nil {
						t.Fatalf("metric line %q: %v", l, err)
					}
					total += v
				}
			}
			return total
		}
	}
	body1, m1 := scrape()
	time.Sleep(300 * time.Millisecond)
	body2, m2 := scrape()
	for _, metric := range []string{"exec_cluster_skipped_total", "exec_kernel_", "engine_cycles_total"} {
		if !strings.Contains(body1, "\n"+metric) {
			t.Errorf("first scrape has no %s", metric)
		}
		if a, b := m1(metric), m2(metric); b <= a {
			t.Errorf("%s not increasing between scrapes: %v -> %v", metric, a, b)
		}
	}
	if strings.Contains(body2, "engine_cycles_per_sec") {
		t.Error("/metrics still exports engine_cycles_per_sec")
	}

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var samples struct {
			Samples []json.RawMessage `json:"samples"`
		}
		if err := json.Unmarshal([]byte(get("/samples.json")), &samples); err != nil {
			t.Fatal(err)
		}
		if len(samples.Samples) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/samples.json holds %d samples, want >= 2", len(samples.Samples))
		}
	}

	stop()
	if n := flightEvents(t, flightPath, "forward"); n == 0 {
		t.Error("exit flight dump holds no forward span")
	}
}

// flightEvents counts the events of a flight-recorder dump named name
// (every event when name is empty).
func flightEvents(t *testing.T, path, name string) int {
	t.Helper()
	var dump struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	readJSON(t, path, &dump)
	n := 0
	for _, ev := range dump.TraceEvents {
		if name == "" || ev.Name == name {
			n++
		}
	}
	return n
}
