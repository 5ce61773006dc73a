package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSamplerRingAndWindows(t *testing.T) {
	tr := New()
	c := tr.Counter("work")
	s := NewSampler(tr, time.Hour, 4) // manual ticks only

	for i := 1; i <= 6; i++ {
		c.Add(int64(i * 10))
		s.TakeSample()
	}
	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("retained %d samples, want 4 (bounded ring)", len(samples))
	}
	if samples[0].Seq != 2 || samples[3].Seq != 5 {
		t.Errorf("seq range = %d..%d, want 2..5", samples[0].Seq, samples[3].Seq)
	}
	// Cumulative values: 10, 30, 60, 100, 150, 210 → retained 60..210.
	if samples[0].Counters["work"] != 60 || samples[3].Counters["work"] != 210 {
		t.Errorf("counter series = %d..%d, want 60..210",
			samples[0].Counters["work"], samples[3].Counters["work"])
	}
	// A consumer's window is the difference of two samples.
	if delta := samples[3].Counters["work"] - samples[2].Counters["work"]; delta != 60 {
		t.Errorf("window delta = %d, want 60", delta)
	}
}

// Property: consecutive sampler windows partition the cumulative
// counters exactly — Σ window deltas == last cumulative − first
// cumulative, with no gaps or double counting, even while writers
// hammer the counter concurrently with sampling.
func TestSamplerWindowsPartitionCounters(t *testing.T) {
	tr := New()
	c := tr.Counter("hits")
	h := tr.Histogram("vals", []int64{100})
	s := NewSampler(tr, time.Hour, 512)

	const workers = 4
	const perW = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	go func() { wg.Wait(); close(stop) }()
	for sampling := true; sampling; {
		select {
		case <-stop:
			sampling = false
		default:
		}
		s.TakeSample()
	}
	s.TakeSample() // final sample sees the grand total

	samples := s.Samples()
	if len(samples) < 2 {
		t.Fatalf("only %d samples", len(samples))
	}
	var sumDeltas, sumHistDeltas int64
	for i := 1; i < len(samples); i++ {
		dc := samples[i].Counters["hits"] - samples[i-1].Counters["hits"]
		if dc < 0 {
			t.Fatalf("window %d: negative counter delta %d", i, dc)
		}
		sumDeltas += dc
		dh := samples[i].Histograms["vals"].Count - samples[i-1].Histograms["vals"].Count
		if dh < 0 {
			t.Fatalf("window %d: negative histogram delta %d", i, dh)
		}
		sumHistDeltas += dh
	}
	first, last := samples[0], samples[len(samples)-1]
	if got, want := sumDeltas, last.Counters["hits"]-first.Counters["hits"]; got != want {
		t.Errorf("counter windows sum to %d, want %d (must partition exactly)", got, want)
	}
	if got, want := sumHistDeltas, last.Histograms["vals"].Count-first.Histograms["vals"].Count; got != want {
		t.Errorf("histogram windows sum to %d, want %d", got, want)
	}
	if last.Counters["hits"] != workers*perW {
		t.Errorf("final cumulative = %d, want %d", last.Counters["hits"], workers*perW)
	}
	// Every intermediate histogram snapshot must be self-consistent.
	for i, sm := range samples {
		hs := sm.Histograms["vals"]
		var tot int64
		for _, v := range hs.Counts {
			tot += v
		}
		if tot != hs.Count || hs.Sum != hs.Count {
			t.Fatalf("sample %d: inconsistent histogram snapshot %+v", i, hs)
		}
	}
}

func TestSamplerStartStop(t *testing.T) {
	tr := New()
	c := tr.Counter("ticks")
	s := NewSampler(tr, 2*time.Millisecond, 64)
	s.Start()
	s.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for {
		c.Inc()
		if len(s.Samples()) > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sampler never ticked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	s.Stop()
	s.Stop() // safe when stopped
	n := len(s.Samples())
	time.Sleep(10 * time.Millisecond)
	if got := len(s.Samples()); got != n {
		t.Errorf("sampler still ticking after Stop: %d -> %d", n, got)
	}
	samples := s.Samples()
	for i := 1; i < len(samples); i++ {
		if samples[i].Counters["ticks"] < samples[i-1].Counters["ticks"] {
			t.Errorf("sample %d: counter went backwards", i)
		}
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		IntervalMS int64    `json:"interval_ms"`
		Samples    []Sample `json:"samples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("samples JSON invalid: %v", err)
	}
	if len(out.Samples) != n {
		t.Errorf("JSON has %d samples, want %d", len(out.Samples), n)
	}
}
