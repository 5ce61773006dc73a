package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"
)

// DefaultSampleCapacity bounds the sampler's in-memory time series: at
// the default 1 s interval this retains an hour of history.
const DefaultSampleCapacity = 3600

// Sample is one periodic snapshot of a trace's metric registry. Every
// value is cumulative (counters and histogram counts are monotone), so
// the window between two consecutive samples is their difference —
// consecutive windows partition the cumulative totals exactly, which
// the property tests assert.
type Sample struct {
	Time       time.Time                    `json:"time"`
	Seq        int64                        `json:"seq"` // 0-based sample number since Start
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Sampler periodically snapshots every registered counter, gauge and
// histogram of a Trace into a bounded in-memory ring — the time-series
// substrate behind the obs.Server /samples.json endpoint and the
// `c2nn watch` table. Sampling reads the registry with the same
// consistency guarantees as Dump (histograms snapshot atomically) and
// never touches the engine hot path: the cost is paid on the sampler's
// own goroutine, once per interval.
type Sampler struct {
	tr       *Trace
	interval time.Duration

	mu   sync.Mutex
	ring []Sample
	head int
	n    int
	seq  int64

	stop chan struct{}
	done chan struct{}
}

// NewSampler creates a sampler over the trace. interval ≤ 0 defaults
// to 1 s, capacity ≤ 0 to DefaultSampleCapacity. The sampler is inert
// until Start.
func NewSampler(tr *Trace, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Sampler{tr: tr, interval: interval, ring: make([]Sample, capacity)}
}

// Start launches the sampling goroutine. Idempotent while running;
// Stop it before restarting.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.TakeSample()
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit. The
// recorded series stays readable. Safe to call when not running.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// TakeSample snapshots the registry immediately — the manual tick used
// by tests and by `c2nn watch` to align a sample with a render.
func (s *Sampler) TakeSample() Sample {
	sm := Sample{
		Time:       time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if s.tr != nil {
		s.tr.metricsMu.Lock()
		counters := make(map[string]*Counter, len(s.tr.counters))
		for name, c := range s.tr.counters {
			counters[name] = c
		}
		gauges := make(map[string]*Gauge, len(s.tr.gauges))
		for name, g := range s.tr.gauges {
			gauges[name] = g
		}
		hists := make(map[string]*Histogram, len(s.tr.histograms))
		for name, h := range s.tr.histograms {
			hists[name] = h
		}
		s.tr.metricsMu.Unlock()
		for name, c := range counters {
			sm.Counters[name] = c.Value()
		}
		for name, g := range gauges {
			sm.Gauges[name] = g.Value()
		}
		for name, h := range hists {
			sm.Histograms[name] = h.Snapshot()
		}
	}
	s.mu.Lock()
	sm.Seq = s.seq
	s.seq++
	s.ring[s.head] = sm
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
	return sm
}

// Samples returns the retained series, oldest first.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.n)
	start := (s.head - s.n + len(s.ring)) % len(s.ring)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// Last returns the most recent sample, if any.
func (s *Sampler) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Sample{}, false
	}
	return s.ring[(s.head-1+len(s.ring))%len(s.ring)], true
}

// Window returns the last two samples' difference for one counter: the
// increment over the most recent sampling interval and the wall-clock
// span it covers. ok is false with fewer than two samples.
func (s *Sampler) Window(counter string) (delta int64, span time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < 2 {
		return 0, 0, false
	}
	last := &s.ring[(s.head-1+len(s.ring))%len(s.ring)]
	prev := &s.ring[(s.head-2+len(s.ring))%len(s.ring)]
	return last.Counters[counter] - prev.Counters[counter], last.Time.Sub(prev.Time), true
}

// Rate returns a counter's per-second rate over the most recent
// sampling window (0 with fewer than two samples).
func (s *Sampler) Rate(counter string) float64 {
	delta, span, ok := s.Window(counter)
	if !ok || span <= 0 {
		return 0
	}
	return float64(delta) / span.Seconds()
}

// WriteJSON writes the retained series as indented JSON — the
// /samples.json payload.
func (s *Sampler) WriteJSON(w io.Writer) error {
	if s == nil {
		return errors.New("obs: cannot export a nil sampler")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		IntervalMS int64    `json:"interval_ms"`
		Samples    []Sample `json:"samples"`
	}{s.interval.Milliseconds(), s.Samples()})
}
