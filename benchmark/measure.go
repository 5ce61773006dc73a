package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"c2nn"
	"c2nn/internal/exec/analyze"
	"c2nn/internal/gatesim"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	seed     int64
	seconds  float64
	corrupt  bool   // flip one expected bit (-selftest)
	traceOut string // Chrome trace destination of a traced run; "" for none
}

func (c runConfig) loop() time.Duration { return seconds(c.seconds) }

// side is the length of a baseline measurement: a second, or less on
// runs too short to afford it.
func (c runConfig) side() time.Duration { return seconds(min(1, c.seconds/5)) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measureEndToEnd is the untraced run: repeated set-up, warm-up, the
// timed loop, and the bit-parallel gate-level baseline on the same
// stimulus in the same process.
func measureEndToEnd(w workload, cfg runConfig) (*measurement, error) {
	prog, _, err := compileReference(w)
	if err != nil {
		return nil, err
	}
	ep, err := buildEpisode(w, prog, cfg.seed, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	su, err := repeatSetUp(w, ep.tb)
	if err != nil {
		return nil, err
	}
	t := su.target
	defer t.eng.Close()
	t.ep = ep
	gates := t.eng.Model().GateCount

	// The baseline is sampled at three points of the run and its fastest
	// replay counts: a busy neighbour slows single-thread code for a
	// second or more at a time.
	ref := newReference(prog, w.words())
	batchsim := 0.0
	sampleBaseline := func() error {
		r, err := replayBatchSim(ep, ref, gates, w.batch, cfg.side()/3)
		batchsim = max(batchsim, r)
		return err
	}

	if err := sampleBaseline(); err != nil {
		return nil, err
	}
	t.run(warmup(cfg.seconds), nil)
	if err := sampleBaseline(); err != nil {
		return nil, err
	}
	// At least one whole episode, so that every check is made.
	loop := t.run(stopAfter(cfg.loop(), len(ep.cycles)), nil)
	if err := sampleBaseline(); err != nil {
		return nil, err
	}
	// The paper's metric on the user's clock: every lane advances every
	// gate by one cycle per cycle of the loop.
	cycleUS := loop.quietCycleUS(w.checkEvery)
	nn := simengine.Throughput(gates, 1, w.batch, time.Duration(cycleUS*float64(time.Microsecond)))

	m := &measurement{
		checks: loop.checks + su.checks,
		failed: loop.failed + su.failed,
		values: make(map[string]float64),
	}
	if loop.diag != "" {
		m.notes = append(m.notes, loop.diag)
	}
	if su.failed > 0 {
		m.notes = append(m.notes, "recompiled model differs byte for byte")
	}
	m.set("setup_s", median(su.seconds))
	m.set("gate_cycles_per_s", nn)
	m.set("cycle_us_quiet", cycleUS)
	m.set("nn_over_batchsim", nn/batchsim)
	rss, ok := peakRSSMB()
	if !ok {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rss = float64(ms.Sys) / 1e6
	}
	m.set("peak_rss_mb", rss)
	return m, nil
}

// measureLayers is the traced run. Set-up is made call by call, the
// cycle loop runs once without and once with a span around every engine
// call, and side loops take the baselines, the machine's streaming peak
// and the unit costs of the I/O boundary — all in this one process, so
// every ratio has both its terms from the same run on the same machine.
func measureLayers(w workload, cfg runConfig) (*measurement, error) {
	rec := newRecorder(w.name)
	prog, gatesimCompile, err := compileReference(w)
	if err != nil {
		return nil, err
	}
	ep, err := buildEpisode(w, prog, cfg.seed, cfg.corrupt)
	if err != nil {
		return nil, err
	}

	// The facade's set-up, for what it allocates and for the model the
	// decomposed set-up must reproduce byte for byte.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := setUp(w, ep.tb)
	if err != nil {
		return nil, err
	}
	defer plain.eng.Close()
	runtime.ReadMemStats(&after)
	st, err := tracedSetUp(w, ep.tb, rec)
	if err != nil {
		return nil, err
	}
	traced := st.target
	defer traced.eng.Close()
	plain.ep, traced.ep = ep, ep

	m := &measurement{values: make(map[string]float64)}
	facadeHash, err := modelHash(plain.eng.Model())
	if err != nil {
		return nil, err
	}
	tracedHash, err := modelHash(st.model)
	if err != nil {
		return nil, err
	}
	m.checks++
	if facadeHash != tracedHash {
		m.failed++
		m.notes = append(m.notes, "model of the decomposed set-up differs from the facade's")
	}

	stop := stopAfter(cfg.loop(), len(ep.cycles))
	plain.run(warmup(cfg.seconds), nil)
	plainLoop := plain.run(stop, nil)
	plainUS := plainLoop.quietCycleUS(w.checkEvery)
	traced.run(warmup(cfg.seconds), nil)
	statsBefore, _ := traced.eng.StatsSnapshot()
	tracedLoop := traced.run(stop, rec)
	statsAfter, _ := traced.eng.StatsSnapshot()
	tracedUS := tracedLoop.quietCycleUS(w.checkEvery)
	for _, l := range []*loopResult{&plainLoop, &tracedLoop} {
		m.checks += l.checks
		m.failed += l.failed
		if l.diag != "" {
			m.notes = append(m.notes, l.diag)
		}
	}

	model := st.model
	gates := model.GateCount
	netStats := model.Net.ComputeStats()
	cost := analyze.Cost(st.plan)
	mix := st.plan.KernelMix()
	rows, groups := 0, 0
	for li := range st.plan.Layers {
		rows += st.plan.Layers[li].WInt.Rows
		groups += len(st.plan.Layers[li].Groups)
	}

	m.set("verilog.parse_s", st.parseS)
	m.set("verilog.source_bytes", float64(st.sourceBytes))
	m.set("synth.elaborate_s", st.elaborateS)
	m.set("synth.gates", float64(st.gates))
	m.set("synth.ffs", float64(st.ffs))
	m.set("lutmap.map_s", st.mapS)
	m.set("lutmap.luts", float64(st.luts))
	m.set("lutmap.depth", float64(st.depth))
	m.set("truthtab.tables_s", st.spanSeconds("tables"))
	m.set("poly.convert_s", st.spanSeconds("poly"))
	m.set("nn.build_s", st.buildS)
	m.set("nn.layers", float64(netStats.Layers))
	m.set("nn.connections", float64(netStats.Connections))
	m.set("nn.model_mb", float64(model.MemoryBytes())/1e6)
	m.set("plan.compile_s", st.planS)
	m.set("plan.rows", float64(rows))
	m.set("plan.rows_general", float64(mix["general"]))
	m.set("plan.groups_per_pass", float64(groups))
	m.set("plan.arena_units", float64(st.plan.ArenaUnits))
	m.set("analyze.word_ops_per_pass", float64(cost.Total.PackedWordOps))
	m.set("analyze.bytes_per_pass", float64(cost.Total.PackedBytes))
	m.set("analyze.float_macs_per_pass", float64(cost.Total.FloatMACs))
	m.set("backend.new_s", st.backendS)
	m.set("backend.arena_mb", float64(st.arenaBytes)/1e6)
	m.set("simengine.new_s", st.engineS)
	m.set("testbench.parse_s", st.tbParseS)
	m.set("testbench.directives", float64(st.tbDirectives))
	m.set("gatesim.compile_s", gatesimCompile.Seconds())
	m.set("runtime.setup_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	m.set("runtime.allocs_per_cycle", float64(plainLoop.mallocs)/float64(plainLoop.steps))
	m.set("machine.nproc", float64(runtime.NumCPU()))
	m.set("trace.overhead_frac", tracedUS/plainUS-1)

	// Where the traced loop's time went. A direct-drive loop has a span
	// around every engine call. A script's calls are made inside
	// RunOpts: its forward time is what the engine's own statistics
	// counted, and its I/O time is the unit cost of each call, measured
	// below, times the lane-bits the script moved.
	unit, err := ioUnitCosts(traced)
	if err != nil {
		return nil, err
	}
	var forward, setInput, getOutput, latch float64
	passes := float64(tracedLoop.steps)
	loopS := rec.total(spanCycle).Seconds()
	if w.script {
		loopS = rec.total(spanRunOpts).Seconds()
		forward = float64(statsAfter.PassNS.Sum-statsBefore.PassNS.Sum) / 1e9
		passes = float64(statsAfter.PassNS.Count - statsBefore.PassNS.Count)
		episodes := float64(tracedLoop.steps) / float64(len(ep.cycles))
		setBits, getBits := ep.laneBits(w.batch)
		setInput = episodes * setBits * unit.setNS / 1e9
		getOutput = episodes * getBits * unit.getNS / 1e9
		latch = float64(tracedLoop.steps) * float64(len(model.Feedback)) * unit.latchNS / 1e9
	} else {
		forward = rec.total(spanForward).Seconds()
		setInput = rec.total(spanSetInput).Seconds()
		getOutput = rec.total(spanGetOutput).Seconds()
		latch = rec.total(spanLatch).Seconds()
	}
	m.set("backend.forward_s", forward)
	m.set("simengine.set_input_s", setInput)
	m.set("simengine.get_output_s", getOutput)
	m.set("simengine.latch_s", latch)
	m.set("simengine.io_share", (setInput+getOutput+latch)/loopS)
	m.set("simengine.set_ns_per_lane_bit", unit.setNS)
	m.set("simengine.get_ns_per_lane_bit", unit.getNS)
	m.set("simengine.latch_ns_per_ff", unit.latchNS)
	m.set("simengine.cycle_us_p50", median(plainLoop.cycleUS))
	p95, _ := tailP95(plainLoop.cycleUS)
	m.set("simengine.cycle_us_p95", p95)
	m.set("simengine.cycle_samples", float64(len(plainLoop.cycleUS)))
	runS, nonForward := 0.0, 0.0
	if w.script {
		runS, nonForward = loopS, (loopS-forward)/loopS
	}
	m.set("testbench.run_s", runS)
	m.set("testbench.non_forward_share", nonForward)

	// Achieved operation rate against what this machine streams. The
	// static count is per 64-lane word for the bit-packed substrate and
	// per lane for the float one; with activity skipping it counts the
	// passes as if nothing had been skipped.
	stream := streamWordOpsPerS(cfg.side() / 2)
	ops := float64(cost.Total.PackedWordOps) * float64(w.words())
	if w.precision != c2nn.BitPacked {
		ops = float64(cost.Total.FloatMACs) * float64(w.batch)
	}
	m.set("machine.stream_word_ops_per_s", stream)
	m.set("backend.word_ops_per_s", ops*passes/forward)
	m.set("backend.roofline_frac", ops*passes/forward/stream)

	// Baselines on the same stimulus.
	batchsim, err := replayBatchSim(ep, newReference(prog, w.words()), gates, w.batch, cfg.side())
	if err != nil {
		return nil, err
	}
	scalar, err := replayScalar(ep, gatesim.NewSim(prog), gates, cfg.side()/2)
	if err != nil {
		return nil, err
	}
	event, err := replayScalar(ep, gatesim.NewEventSim(prog), gates, cfg.side()/2)
	if err != nil {
		return nil, err
	}
	m.set("gatesim.batchsim_gcps", batchsim)
	m.set("gatesim.scalar_gcps", scalar)
	m.set("gatesim.event_gcps", event)

	// One worker against the default, and the integer substrate against
	// the float one, each over a tenth of the run.
	sideRun := func(opts c2nn.EngineOptions) (float64, error) {
		eng, err := c2nn.NewEngine(model, opts)
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		t := &target{w: w, eng: eng, script: traced.script, ep: ep}
		t.run(warmup(cfg.seconds/10), nil)
		loop := t.run(stopAfter(cfg.loop()/10, warmupMinCycles), nil)
		m.checks += loop.checks
		m.failed += loop.failed
		return loop.quietCycleUS(w.checkEvery), nil
	}
	opts := w.engineOptions()
	opts.Workers = 1
	oneWorker, err := sideRun(opts)
	if err != nil {
		return nil, err
	}
	m.set("backend.workers_speedup", oneWorker/plainUS)
	int32OverF32 := 0.0
	if w.precision == c2nn.Float32 {
		opts = w.engineOptions()
		opts.Precision = c2nn.Int32
		int32Cycle, err := sideRun(opts)
		if err != nil {
			return nil, err
		}
		int32OverF32 = plainUS / int32Cycle
	}
	m.set("backend.int32_over_f32", int32OverF32)

	// One episode on an engine with the program's own kernel spans on:
	// which layer is hot, how well the static cost model ranks the
	// layers, and the exact share of clusters the activity index skipped.
	kernels, err := kernelRun(w, model, traced, cost)
	if err != nil {
		return nil, err
	}
	m.checks += kernels.checks
	m.failed += kernels.failed
	m.set("backend.hot_layer_share", kernels.hotShare)
	m.set("backend.cost_model_r", kernels.costR)
	m.set("backend.activity_skip_rate", kernels.skipRate)

	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return nil, err
		}
		if err := rec.writeChrome(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("write trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return m, nil
}

// laneBits counts the lane·bits one replay of the episode loads into
// input ports and reads from output ports.
func (ep *episode) laneBits(batch int) (set, get float64) {
	outBits := 0
	for o := range ep.outputs {
		outBits += ep.outputs[o].Width()
	}
	for c := range ep.cycles {
		for i := range ep.cycles[c] {
			set += float64(ep.cycles[c][i].width * batch)
		}
		if ep.check[c] {
			get += float64(outBits * batch)
		}
	}
	return set, get
}

// unitCosts are the costs of the engine's I/O boundary per unit moved.
type unitCosts struct {
	setNS, getNS float64 // per lane·bit
	latchNS      float64 // per flip-flop
}

// ioUnitCosts times about a thousand calls each of the input loads, the
// output reads and the feedback latch, over every port of the design.
func ioUnitCosts(t *target) (unitCosts, error) {
	const calls = 1000
	var u unitCosts
	loads := t.ep.cycles[0] // the first cycle drives every input
	perRound, setBits := 0, 0
	for i := range loads {
		setBits += loads[i].width * t.w.batch
		if loads[i].bits == nil {
			perRound++
		} else {
			perRound += t.w.batch
		}
	}
	rounds := calls/perRound + 1
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range loads {
			if err := setInput(t.eng, &loads[i]); err != nil {
				return u, err
			}
		}
	}
	u.setNS = float64(time.Since(t0)) / float64(rounds*setBits)

	perRound, getBits := 0, 0
	for o := range t.ep.outputs {
		width := t.ep.outputs[o].Width()
		getBits += width * t.w.batch
		if width <= 64 {
			perRound++
		} else {
			perRound += t.w.batch
		}
	}
	rounds = calls/perRound + 1
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for o := range t.ep.outputs {
			if _, _, err := getOutput(t.eng, &t.ep.outputs[o]); err != nil {
				return u, err
			}
		}
	}
	u.getNS = float64(time.Since(t0)) / float64(rounds*getBits)

	t0 = time.Now()
	for r := 0; r < calls; r++ {
		t.eng.LatchFeedback()
	}
	u.latchNS = float64(time.Since(t0)) / float64(calls*len(t.eng.Model().Feedback))
	return u, nil
}

// streamWordOpsPerS is this machine's streaming peak for the bit-packed
// kernels' kind of work: every core ANDs and XORs its way through two
// operands too large for its caches, two word operations per pair of
// words loaded.
func streamWordOpsPerS(budget time.Duration) float64 {
	const words = 2 << 20 // 16 MiB per operand and core
	procs := runtime.GOMAXPROCS(0)
	operands := make([][2][]uint64, procs)
	for p := range operands {
		for o := range operands[p] {
			operands[p][o] = make([]uint64, words)
			for i := range operands[p][o] {
				operands[p][o][i] = uint64(i) * 0x9e3779b97f4a7c15
			}
		}
	}
	sinks := make([]uint64, procs)
	passes := 0
	t0 := time.Now()
	for time.Since(t0) < budget || passes == 0 {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, b := operands[p][0], operands[p][1]
				var acc uint64
				for i := range a {
					acc ^= a[i] & b[i]
				}
				sinks[p] += acc
			}()
		}
		wg.Wait()
		passes++
	}
	elapsed := time.Since(t0).Seconds()
	runtime.KeepAlive(sinks)
	return 2 * float64(words) * float64(procs) * float64(passes) / elapsed
}

// kernelStats is what the program's own per-layer kernel spans said
// over one episode.
type kernelStats struct {
	hotShare, costR, skipRate float64
	checks, failed            int64
}

// kernelRun replays exactly one episode on an engine built with
// Options.Trace, an existing hook that makes every backend record one
// span per plan layer and pass.
func kernelRun(w workload, model *c2nn.Model, like *target, cost *analyze.CostReport) (kernelStats, error) {
	var ks kernelStats
	tr := obs.New()
	opts := w.engineOptions()
	opts.Trace = tr
	eng, err := c2nn.NewEngine(model, opts)
	if err != nil {
		return ks, err
	}
	defer eng.Close()
	t := &target{w: w, eng: eng, script: like.script, ep: like.ep}
	loop := t.run(func(r *loopResult) bool { return r.steps >= len(t.ep.cycles) }, nil)
	ks.checks, ks.failed = loop.checks, loop.failed

	measured := make([]float64, len(cost.Layers))
	var total, hot float64
	for _, s := range tr.StatsByName() {
		var li int
		if n, _ := fmt.Sscanf(s.Name, "layer %d", &li); n != 1 || li >= len(measured) {
			continue
		}
		measured[li] = s.Total.Seconds()
		total += measured[li]
		hot = max(hot, measured[li])
	}
	if total > 0 {
		ks.hotShare = hot / total
	}
	static := make([]float64, len(cost.Layers))
	for li := range cost.Layers {
		static[li] = float64(cost.Layers[li].PackedWordOps)
		if w.precision != c2nn.BitPacked {
			static[li] = float64(cost.Layers[li].FloatMACs)
		}
	}
	ks.costR = pearson(static, measured)
	if dirty, skipped := eng.ActivityCounters(); dirty+skipped > 0 {
		ks.skipRate = float64(skipped) / float64(dirty+skipped)
	}
	return ks, nil
}
