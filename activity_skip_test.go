package c2nn

// Differential battery for activity-driven execution: an engine that
// skips clean clusters must be bit-identical to the always-full
// baseline on every benchmark circuit, every backend, every shipped
// testbench and under random stimuli — including stimuli engineered to
// actually leave clusters clean (input holds). This battery is the
// contract that makes the skip machinery trustworthy: the optimisation
// is only allowed to exist because these tests cannot tell it apart
// from the baseline.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"c2nn/internal/exec/plan"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/raceflag"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// holdStimuli drives identical stimuli into a set of engines, one cycle
// per call. Values come from the one generator (simengine.Stimulus), so
// wide ports are covered at full width, but each port keeps its previous
// value with probability 2/3 — holds are what let clusters go clean, so
// fresh values every cycle would never exercise the skip path on
// input-rooted cones.
type holdStimuli struct {
	stim      *simengine.Stimulus
	hold      *rand.Rand
	cur, next simengine.Cycle
}

func newHoldStimuli(model *Model, seed int64, batch int) *holdStimuli {
	return &holdStimuli{stim: simengine.NewStimulus(model, batch, seed), hold: rand.New(rand.NewSource(seed))}
}

// drive applies one cycle of stimuli to every engine. All engines see
// the same values, so their root diffs make the same skip decisions.
func (h *holdStimuli) drive(t *testing.T, engines ...*Engine) {
	t.Helper()
	if h.cur == nil {
		h.cur = h.stim.Next(nil)
	} else {
		h.next = h.stim.Next(h.next)
		for p := range h.cur {
			if h.hold.Intn(3) == 0 {
				copy(h.cur[p], h.next[p])
			}
		}
	}
	for _, eng := range engines {
		if err := h.stim.Load(eng, h.cur); err != nil {
			t.Fatal(err)
		}
	}
}

// compareOutputs fails on the first output bit where the engines
// disagree. Wide ports are read per lane with GetOutputBits.
func compareOutputs(t *testing.T, model *Model, cyc int, base, act *Engine, batch int) {
	t.Helper()
	for _, out := range model.Outputs {
		if len(out.Units) > 64 {
			for lane := 0; lane < batch; lane++ {
				ref, err := base.GetOutputBits(out.Name, lane)
				if err != nil {
					t.Fatal(err)
				}
				got, err := act.GetOutputBits(out.Name, lane)
				if err != nil {
					t.Fatal(err)
				}
				for bit := range ref {
					if got[bit] != ref[bit] {
						t.Fatalf("cycle %d port %s lane %d bit %d: activity engine diverged",
							cyc, out.Name, lane, bit)
					}
				}
			}
			continue
		}
		ref, err := base.GetOutput(out.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := act.GetOutput(out.Name)
		if err != nil {
			t.Fatal(err)
		}
		for lane := range ref {
			if got[lane] != ref[lane] {
				t.Fatalf("cycle %d port %s lane %d: activity=%#x baseline=%#x",
					cyc, out.Name, lane, got[lane], ref[lane])
			}
		}
	}
}

// diffActivity runs one baseline and one activity-enabled engine of the
// same precision in lock-step under hold-heavy random stimuli and
// requires bit-identical outputs on every cycle. It returns the
// activity engine's (dirty, skipped) cluster tallies so callers can
// assert the skip path was actually exercised.
func diffActivity(t *testing.T, model *Model, prec Precision, cycles, batch int, seed int64) (dirty, skipped int64) {
	t.Helper()
	base, err := NewEngine(model, EngineOptions{Batch: batch, Precision: prec})
	if err != nil {
		t.Fatalf("baseline engine: %v", err)
	}
	defer base.Close()
	act, err := NewEngine(model, EngineOptions{Batch: batch, Precision: prec, Activity: true})
	if err != nil {
		t.Fatalf("activity engine: %v", err)
	}
	defer act.Close()
	if !act.ActivityEnabled() {
		t.Fatal("Options.Activity did not enable skipping")
	}

	st := newHoldStimuli(model, seed, batch)
	for cyc := 0; cyc < cycles; cyc++ {
		st.drive(t, base, act)
		base.Forward()
		act.Forward()
		compareOutputs(t, model, cyc, base, act, batch)
		base.LatchFeedback()
		act.LatchFeedback()
	}
	return act.ActivityCounters()
}

// TestActivitySkipBitIdenticalOnBenchmarks is the battery core: every
// Table I circuit, at two LUT sizes, on all three backends, skip on vs
// off under hold-heavy stimuli. Batch 67 on the packed backend
// exercises the masked partial tail word in the root diff. Across the
// whole matrix the skip path must fire at least once — a battery that
// never skips proves nothing.
func TestActivitySkipBitIdenticalOnBenchmarks(t *testing.T) {
	ls := []int{4, 7}
	cycles := 48
	if testing.Short() || raceflag.Enabled {
		ls = []int{4}
		cycles = 20
	}
	var totalSkipped int64
	for _, c := range Benchmarks() {
		for _, l := range ls {
			model, err := CompileBenchmark(c.Name, Options{L: l})
			if err != nil {
				t.Fatal(err)
			}
			for _, prec := range backendPrecisions {
				cyc, batch := cycles, 67
				if prec != simengine.BitPacked {
					// Scalar backends pay per lane; keep them honest but cheap.
					cyc, batch = cycles/2, 4
				}
				t.Run(fmt.Sprintf("%s/L%d/%v", c.Name, l, prec), func(t *testing.T) {
					_, skipped := diffActivity(t, model, prec, cyc, batch, int64(l)*1000+7)
					totalSkipped += skipped
				})
			}
		}
	}
	if totalSkipped == 0 {
		t.Error("no cluster was ever skipped across the whole battery")
	}
}

// TestActivitySkipLongRandomStimulus soaks the sequential state: 1000
// random-with-holds cycles on each control-heavy benchmark, packed
// backend. Divergence in any latch or skipped cone compounds over this
// horizon and would surface in the output diff.
func TestActivitySkipLongRandomStimulus(t *testing.T) {
	cycles := 1000
	if testing.Short() || raceflag.Enabled {
		cycles = 200
	}
	// Skips are asserted in aggregate: with 64 lanes of independent
	// random state, a control core's FF roots can churn every cycle
	// (UART's free-running baud divider alone keeps its cluster dirty),
	// so per-circuit skip guarantees belong to the testbench workloads.
	var totalSkipped int64
	for _, name := range []string{"UART", "SPI", "DMA"} {
		t.Run(name, func(t *testing.T) {
			model, err := CompileBenchmark(name, Options{L: 4})
			if err != nil {
				t.Fatal(err)
			}
			_, skipped := diffActivity(t, model, simengine.BitPacked, cycles, 64, 20260808)
			totalSkipped += skipped
		})
	}
	if totalSkipped == 0 {
		t.Error("no circuit ever skipped a cluster over the long soak")
	}
}

// TestActivitySkipOnSmokeTestbenches replays each shipped testbench on
// a baseline and an activity engine of every precision, recording every
// output port at every traced sample, and requires the recordings to be
// identical — and all script expectations to pass on both. The UART
// packed run must actually skip: its launch gating leaves idle cones
// clean between frames.
func TestActivitySkipOnSmokeTestbenches(t *testing.T) {
	tbs := map[string]string{"uart_smoke.tb": "UART", "spi_smoke.tb": "SPI", "dma_smoke.tb": "DMA"}
	if testing.Short() {
		tbs = map[string]string{"uart_smoke.tb": "UART"}
	}
	const batch = 2
	for tb, circuit := range tbs {
		model, err := CompileBenchmark(circuit, Options{L: 4})
		if err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(filepath.Join("testbenches", tb))
		if err != nil {
			t.Fatal(err)
		}
		script, err := testbench.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, prec := range backendPrecisions {
			t.Run(fmt.Sprintf("%s/%v", tb, prec), func(t *testing.T) {
				// record replays the script and snapshots every output
				// port (both lanes) at every traced sample.
				record := func(activity bool) ([]bool, testbench.Result, int64) {
					eng, err := NewEngine(model, EngineOptions{Batch: batch, Precision: prec, Activity: activity})
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					var rec []bool
					res, err := script.RunOpts(eng, testbench.RunOptions{
						Trace: func(int) error {
							for _, out := range model.Outputs {
								for lane := 0; lane < batch; lane++ {
									bits, err := eng.GetOutputBits(out.Name, lane)
									if err != nil {
										return err
									}
									rec = append(rec, bits...)
								}
							}
							return nil
						},
					})
					if err != nil {
						t.Fatalf("activity=%v: %v", activity, err)
					}
					_, skipped := eng.ActivityCounters()
					return rec, res, skipped
				}
				refRec, refRes, _ := record(false)
				actRec, actRes, skipped := record(true)
				if refRes != actRes {
					t.Fatalf("run results differ: baseline %+v, activity %+v", refRes, actRes)
				}
				if refRes.Checks == 0 {
					t.Fatal("testbench made no checks")
				}
				if len(refRec) != len(actRec) {
					t.Fatalf("recorded %d baseline bits, %d activity bits", len(refRec), len(actRec))
				}
				for i := range refRec {
					if refRec[i] != actRec[i] {
						t.Fatalf("recorded output bit %d differs between baseline and activity run", i)
					}
				}
				if tb == "uart_smoke.tb" && prec == simengine.BitPacked && skipped == 0 {
					t.Error("UART smoke run never skipped a cluster")
				}
			})
		}
	}
}

// rootProbe is the skip oracle: a test-local re-derivation of the
// activity backend's decisions from outside the engine. Before every
// Forward it reads each sequential root's units in every lane through
// PeekUnit, diffs them against its previous reading, and propagates
// dirtiness forward along Clusters[c].Preds (clusters are sorted by
// layer, so predecessors are decided first). A pass after a mutation
// the root diff cannot see — Reset, PokeUnit, overlay install/remove —
// dirties every cluster.
type rootProbe struct {
	eng *Engine
	// roots[r] are root r's units (ports first, then FF Q bits);
	// prev[r][i*batch+lane] is unit i's reading at the last pass,
	// starting zeroed like the backend's snapshot.
	roots   [][]int32
	prev    [][]bool
	toggles []int64
	dirty   []bool
	invalid bool
}

func newRootProbe(eng *Engine) *rootProbe {
	m := eng.Model()
	pr := &rootProbe{eng: eng, invalid: true, dirty: make([]bool, len(eng.Plan().Clusters.Clusters))}
	for _, port := range m.Inputs {
		pr.roots = append(pr.roots, port.Units)
	}
	for _, fb := range m.Feedback {
		pr.roots = append(pr.roots, []int32{fb.ToPI})
	}
	pr.prev = make([][]bool, len(pr.roots))
	for r, units := range pr.roots {
		pr.prev[r] = make([]bool, len(units)*eng.Batch())
	}
	pr.toggles = make([]int64, len(pr.roots))
	return pr
}

// predict reads the roots and returns the clusters the next Forward
// must dispatch.
func (pr *rootProbe) predict() []bool {
	batch := pr.eng.Batch()
	rootDirty := make([]bool, len(pr.roots))
	for r, units := range pr.roots {
		for i, u := range units {
			for lane := 0; lane < batch; lane++ {
				if v := pr.eng.PeekUnit(u, lane); v != pr.prev[r][i*batch+lane] {
					pr.prev[r][i*batch+lane] = v
					rootDirty[r] = true
				}
			}
		}
		if rootDirty[r] {
			pr.toggles[r]++
		}
	}
	numPorts := int32(len(pr.eng.Model().Inputs))
	for ci, c := range pr.eng.Plan().Clusters.Clusters {
		d := pr.invalid
		for _, ref := range c.Roots {
			if ref.Kind == plan.RootFF {
				d = d || rootDirty[numPorts+ref.Index]
			} else {
				d = d || rootDirty[ref.Index]
			}
		}
		for _, pc := range c.Preds {
			d = d || pr.dirty[pc]
		}
		pr.dirty[ci] = d
	}
	pr.invalid = false
	return pr.dirty
}

// stuckLane is a fault-style overlay: it forces one lane of one unit
// high before the first layer of every pass it is installed for.
type stuckLane struct {
	unit int32
	lane int
}

func (o stuckLane) Apply(e *Engine, layer int) {
	if layer == -1 {
		e.PokeUnit(o.unit, o.lane, true)
	}
}

// TestProbeMatchesBackendSkipDecisions pins the backend's per-cluster
// dirty counts to the test-local rootProbe, pass by pass and cluster by
// cluster, on every substrate. Batch 70 with per-lane random stimuli
// makes lanes differ and leaves a partial last word on the bit-packed
// substrate; a Reset, a PokeUnit and an overlay install/remove each
// force the all-dirty pass that follows them. The per-root toggle
// counts behind `c2nn profile -activity` are checked alongside.
func TestProbeMatchesBackendSkipDecisions(t *testing.T) {
	model, err := CompileBenchmark("UART", Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 70
	for _, prec := range backendPrecisions {
		t.Run(prec.String(), func(t *testing.T) {
			eng, err := NewEngine(model, EngineOptions{
				Batch: batch, Precision: prec, Activity: true, KeepAllActivations: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			pr := newRootProbe(eng)
			ff := model.Feedback[0].ToPI
			st := newHoldStimuli(model, 99, batch)
			var before, after []int64
			skips := 0
			for cyc := 0; cyc < 60; cyc++ {
				st.drive(t, eng)
				if cyc%20 >= 10 {
					// Every lane reads its own random stimulus, so some
					// lane moves almost every FF each cycle; holding
					// reset half the time lets FF roots, and with them
					// clusters, go clean.
					if err := eng.SetInputUniform("rst", 1); err != nil {
						t.Fatal(err)
					}
				}
				switch cyc {
				case 15:
					eng.Reset()
					pr.invalid = true
				case 25:
					eng.PokeUnit(ff, batch-1, !eng.PeekUnit(ff, batch-1))
					pr.invalid = true
				case 35:
					if err := eng.WithFaults(stuckLane{unit: ff, lane: 3}); err != nil {
						t.Fatal(err)
					}
				case 38:
					if err := eng.WithFaults(nil); err != nil {
						t.Fatal(err)
					}
					pr.invalid = true
				}
				if cyc >= 35 && cyc < 38 {
					// Overlay passes run layer by layer with no skip
					// pass, so the counters stand still.
					d0, s0 := eng.ActivityCounters()
					eng.Step()
					if d1, s1 := eng.ActivityCounters(); d1 != d0 || s1 != s0 {
						t.Fatalf("cycle %d: overlay pass moved the activity counters", cyc)
					}
					continue
				}
				want := pr.predict()
				before = eng.ActivityClusterDirty(before)
				eng.Forward()
				after = eng.ActivityClusterDirty(after)
				for ci, dirty := range want {
					var n int64
					if dirty {
						n = 1
					} else {
						skips++
					}
					if got := after[ci] - before[ci]; got != n {
						t.Fatalf("cycle %d cluster %d: backend dirty count moved by %d, probe predicted %d",
							cyc, ci, got, n)
					}
				}
				if got := eng.ActivityRootToggles(nil); !slices.Equal(got, pr.toggles) {
					t.Fatalf("cycle %d: backend root toggles %v, probe %v", cyc, got, pr.toggles)
				}
				eng.LatchFeedback()
			}
			if skips == 0 {
				t.Fatal("the probe never predicted a clean cluster: the skip path went unchecked")
			}
		})
	}
}

// TestActivityStateMutationInvalidation checks every mutation that
// rewrites engine state behind the root diff: after SetInputBits, a
// PokeUnit into the FF feedback plane, or a Reset, the activity engine
// must keep tracking a baseline fed the identical sequence — and a
// Reset engine must be indistinguishable from a freshly built one.
func TestActivityStateMutationInvalidation(t *testing.T) {
	model, err := CompileBenchmark("SPI", Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	mutations := []struct {
		name string
		do   func(t *testing.T, eng *Engine)
	}{
		{"SetInputBits", func(t *testing.T, eng *Engine) {
			in := model.Inputs[0]
			bits := make([]bool, len(in.Units))
			for i := range bits {
				bits[i] = i%2 == 0
			}
			for lane := 0; lane < batch; lane++ {
				if err := eng.SetInputBits(in.Name, lane, bits); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"PokeUnit", func(t *testing.T, eng *Engine) {
			// Flip every FF's latched Q bit on one lane: state the root
			// diff alone would attribute to a toggle, but the engine must
			// also survive the invalidation the poke performs.
			for _, fb := range model.Feedback {
				eng.PokeUnit(fb.ToPI, 1, !eng.PeekUnit(fb.ToPI, 1))
			}
		}},
		{"Reset", func(t *testing.T, eng *Engine) { eng.Reset() }},
	}
	for _, prec := range backendPrecisions {
		for _, mut := range mutations {
			t.Run(fmt.Sprintf("%v/%s", prec, mut.name), func(t *testing.T) {
				// KeepAllActivations pins the baseline's arena the same way
				// Activity pins the skip engine's, so pokes land in
				// identically owned slots.
				base, err := NewEngine(model, EngineOptions{Batch: batch, Precision: prec, KeepAllActivations: true})
				if err != nil {
					t.Fatal(err)
				}
				defer base.Close()
				act, err := NewEngine(model, EngineOptions{Batch: batch, Precision: prec, Activity: true})
				if err != nil {
					t.Fatal(err)
				}
				defer act.Close()

				// Warm up with holds so the activity engine has settled
				// into skipping before the mutation hits.
				st := newHoldStimuli(model, 7, batch)
				for cyc := 0; cyc < 6; cyc++ {
					st.drive(t, base, act)
					base.Step()
					act.Step()
				}
				mut.do(t, base)
				mut.do(t, act)
				for cyc := 0; cyc < 4; cyc++ {
					base.Forward()
					act.Forward()
					compareOutputs(t, model, cyc, base, act, batch)
					base.LatchFeedback()
					act.LatchFeedback()
				}
				if mut.name == "Reset" {
					// Reset + step must equal a fresh engine + step.
					fresh, err := NewEngine(model, EngineOptions{Batch: batch, Precision: prec, Activity: true})
					if err != nil {
						t.Fatal(err)
					}
					defer fresh.Close()
					act.Reset()
					act.Forward()
					fresh.Forward()
					compareOutputs(t, model, 0, fresh, act, batch)
				}
			})
		}
	}
}

// FuzzActivitySkip fuzzes the battery over random sequential netlists:
// random circuit shape, LUT size, merge setting and backend, skip on vs
// off, bit-identical over hold-heavy stimuli.
func FuzzActivitySkip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(4), uint8(4), true)
	f.Add(int64(2), uint8(8), uint8(90), uint8(0), uint8(6), false)
	f.Add(int64(3), uint8(3), uint8(25), uint8(9), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, nFFs, k uint8, merge bool) {
		rng := rand.New(rand.NewSource(seed))
		nl := randomCircuit(rng, 2+int(nIn)%10, 10+int(nGates)%120, int(nFFs)%10)
		if _, err := nl.Optimize(); err != nil {
			t.Skip(err)
		}
		kk := 2 + int(k)%9
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: kk})
		if err != nil {
			t.Skip(err)
		}
		model, err := nn.Build(nl, m, nn.BuildOptions{L: kk})
		if err != nil {
			t.Skip(err)
		}
		if merge {
			if model, err = nn.Merge(model); err != nil {
				t.Fatal(err)
			}
		}
		prec := backendPrecisions[int(uint64(seed)%uint64(len(backendPrecisions)))]
		batch := []int{1, 5, 67}[int(nGates)%3]
		diffActivity(t, model, prec, 12, batch, seed^0x5eed)
	})
}
