package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func serverFixture(t *testing.T) (*Trace, *Sampler, *FlightRecorder, *httptest.Server) {
	t.Helper()
	tr := New()
	tr.Counter("exec.cluster.skipped").Add(11)
	tr.Gauge("bp.lanes.used").Set(1234)
	tr.Histogram("engine.pass_ns", []int64{10, 100}).Observe(42)
	fr := NewFlightRecorder(32)
	tr.AttachFlightRecorder(fr)
	tr.Event("overlay", "overlay.install", Attr{Key: "classes", Int: 2})
	smp := NewSampler(tr, time.Hour, 16)
	smp.TakeSample()
	smp.TakeSample()
	srv := httptest.NewServer(NewServer(tr, ServerOptions{Sampler: smp}).Handler())
	t.Cleanup(srv.Close)
	return tr, smp, fr, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	_, _, _, srv := serverFixture(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"exec_cluster_skipped_total 11",
		"bp_lanes_used 1234",
		`engine_pass_ns_bucket{le="100"} 1`,
		"engine_pass_ns_sum 42",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerJSONEndpoints(t *testing.T) {
	_, _, _, srv := serverFixture(t)

	code, body := get(t, srv.URL+"/metrics.json")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("/metrics.json status %d, valid JSON %v", code, json.Valid([]byte(body)))
	}

	code, body = get(t, srv.URL+"/samples.json")
	if code != http.StatusOK {
		t.Fatalf("/samples.json status %d", code)
	}
	var samples struct {
		Samples []Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples.Samples) != 2 {
		t.Errorf("samples.json has %d samples, want 2", len(samples.Samples))
	}

	code, body = get(t, srv.URL+"/flight.json")
	if code != http.StatusOK {
		t.Fatalf("/flight.json status %d", code)
	}
	var flight struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &flight); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range flight.TraceEvents {
		if ev.Name == "overlay.install" {
			found = true
		}
	}
	if !found {
		t.Errorf("/flight.json missing overlay.install event: %s", body)
	}
}

func TestServerHealthz(t *testing.T) {
	_, _, _, srv := serverFixture(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var h struct {
		Status       string `json:"status"`
		Samples      int    `json:"samples"`
		FlightEvents int    `json:"flight_events"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Samples != 2 || h.FlightEvents != 1 {
		t.Errorf("healthz = %+v, want ok/2 samples/1 flight event", h)
	}
}

func TestServerPprofMounted(t *testing.T) {
	_, _, _, srv := serverFixture(t)
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d, body misses goroutine index", code)
	}
}

func TestServerMissingSources(t *testing.T) {
	tr := New()
	srv := httptest.NewServer(NewServer(tr, ServerOptions{}).Handler())
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/samples.json"); code != http.StatusNotFound {
		t.Errorf("/samples.json without sampler: status %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/flight.json"); code != http.StatusNotFound {
		t.Errorf("/flight.json without recorder: status %d, want 404", code)
	}
}

func TestServerStartClose(t *testing.T) {
	tr := New()
	tr.Counter("x").Inc()
	s := NewServer(tr, ServerOptions{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", s.Addr(), addr)
	}
	if _, err := s.Start("127.0.0.1:0"); err == nil {
		t.Error("double Start must fail")
	}
	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "x_total 1") {
		t.Errorf("live /metrics status %d body %q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}
