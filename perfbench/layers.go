package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/lapsolver"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/serve"
	"lapcc/internal/sparsify"
	"lapcc/internal/trace"
)

// instruments is everything the traced run attaches to the workload's ops
// from outside the layers: the existing metrics registries, an http.Handler
// middleware that times the daemon's handler, and a fresh RunOptions.Trace
// tracer per core.Do op. A nil *instruments is
// the timed run: every method then returns the uninstrumented value.
type instruments struct {
	reg *metrics.Registry

	// handled carries the handler time of the request just served from the
	// middleware to the client loop (one closed-loop client, so at most one
	// value is ever pending).
	handled   chan time.Duration
	handlerMs []float64
	wireMs    []float64

	spanWall  map[string]time.Duration // summed wall time per span path
	spanCalls map[string]int
}

func newInstruments() *instruments {
	return &instruments{
		reg:       metrics.NewRegistry(),
		handled:   make(chan time.Duration, 1),
		spanWall:  map[string]time.Duration{},
		spanCalls: map[string]int{},
	}
}

func (in *instruments) registry() *metrics.Registry {
	if in == nil {
		return nil
	}
	return in.reg
}

// middleware returns the handler decorator that reports each request's
// handler time, or nil for the timed run.
func (in *instruments) middleware() func(http.Handler) http.Handler {
	if in == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			next.ServeHTTP(w, r)
			d := time.Since(t0)
			select {
			case in.handled <- d:
			default: // a value nobody collected (set-up traffic); drop it
			}
		})
	}
}

func (in *instruments) tracer() *trace.Tracer {
	if in == nil {
		return nil
	}
	return trace.New()
}

// drain discards handler times left over from set-up traffic.
func (in *instruments) drain() {
	for {
		select {
		case <-in.handled:
		default:
			return
		}
	}
}

// afterOp collects one op's handler time (serve workloads) and span tree
// (core.Do workloads).
func (in *instruments) afterOp(serving bool) func(time.Duration, opResult) {
	return func(lat time.Duration, res opResult) {
		if serving {
			select {
			case h := <-in.handled:
				in.handlerMs = append(in.handlerMs, float64(h.Nanoseconds())/1e6)
				in.wireMs = append(in.wireMs, float64((lat-h).Nanoseconds())/1e6)
			case <-time.After(5 * time.Second):
			}
		}
		for _, ph := range res.tr.Phases() {
			in.spanWall[ph.Path] += ph.WallTime
			in.spanCalls[ph.Path] += ph.Calls
		}
	}
}

// spanLeafWall sums wall time and calls over span paths ending in leaf.
func (in *instruments) spanLeafWall(leaf string) (time.Duration, int) {
	var wall time.Duration
	calls := 0
	for p, d := range in.spanWall {
		if p == leaf || strings.HasSuffix(p, "/"+leaf) {
			wall += d
			calls += in.spanCalls[p]
		}
	}
	return wall, calls
}

// timedTransport is the transport probe's cc.Transport decorator: it times
// every Deliver and sums the backend's delivery statistics.
type timedTransport struct {
	inner cc.Transport

	mu     sync.Mutex
	rounds int64
	busy   time.Duration
	stats  cc.DeliveryStats
}

func (t *timedTransport) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	t0 := time.Now()
	msgs, st, err := t.inner.Deliver(round, n, out)
	d := time.Since(t0)
	t.mu.Lock()
	t.rounds++
	t.busy += d
	t.stats.Messages += st.Messages
	t.stats.Frames += st.Frames
	t.stats.FrameBytes += st.FrameBytes
	t.stats.Retransmits += st.Retransmits
	t.stats.Acks += st.Acks
	t.mu.Unlock()
	return msgs, st, err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// usPerRound is the mean Deliver time in microseconds.
func (t *timedTransport) usPerRound() float64 {
	return ratio(float64(t.busy.Nanoseconds())/1e3, float64(t.rounds))
}

// regDelta reads counter and histogram growth between two snapshots of one
// registry, summed over label sets.
type regDelta struct {
	before, after map[string]metrics.Sample
}

func newRegDelta(before, after []metrics.Sample) regDelta {
	index := func(ss []metrics.Sample) map[string]metrics.Sample {
		m := map[string]metrics.Sample{}
		for _, s := range ss {
			key := s.Name
			for _, l := range s.Labels {
				key += "," + l.Key + "=" + l.Value
			}
			m[key] = s
		}
		return m
	}
	return regDelta{before: index(before), after: index(after)}
}

// sum adds up f(after) - f(before) over every series whose key is name or
// starts with name plus a label set containing match.
func (d regDelta) sum(name, match string, f func(metrics.Sample) int64) float64 {
	var total int64
	for key, s := range d.after {
		if key != name && !strings.HasPrefix(key, name+",") {
			continue
		}
		if match != "" && !strings.Contains(key, ","+match) {
			continue
		}
		total += f(s) - f(d.before[key])
	}
	return float64(total)
}

func (d regDelta) counter(name string) float64 {
	return d.sum(name, "", func(s metrics.Sample) int64 { return s.Value })
}

func (d regDelta) counterWith(name, label string) float64 {
	return d.sum(name, label, func(s metrics.Sample) int64 { return s.Value })
}

func (d regDelta) histCount(name string) float64 {
	return d.sum(name, "", func(s metrics.Sample) int64 { return s.Count })
}

// server is implemented by the workloads that drive the daemon.
type server interface{ server() *daemon }

func (w *solveHot) server() *daemon  { return w.d }
func (w *serveCold) server() *daemon { return w.d }

// runTraced is the per-layer run. Phase A repeats the timed run's
// configuration (every instrument off) for the overhead baseline; phase B
// runs the same op sequence with every instrument attached; phase C times
// public functions directly on the workload's own operands. Phase A also
// gives the wall-clock figures (wall.*) that the end-to-end metrics, being
// CPU times, leave out; phases B and C feed the layer metrics, and no
// figure of this run is an end-to-end metric.
func runTraced(cfg config, w workload, stderr io.Writer) (*report, error) {
	half := cfg.seconds / 2
	probes := []hostProbe{probeHost()}
	runtime.GC()

	setupWall, _, err := startTimed(w, nil)
	if err != nil {
		return nil, err
	}
	pa, err := runPhase(w, half, nil, stderr)
	w.stop()
	if err != nil {
		return nil, err
	}
	probes = append(probes, probeHost())
	runtime.GC()

	in := newInstruments()
	cc.SetMetrics(in.reg)
	linalg.SetMetrics(in.reg)
	defer cc.SetMetrics(nil)
	defer linalg.SetMetrics(nil)
	_, child0 := cpuTime()
	if _, _, err := startTimed(w, in); err != nil {
		return nil, err
	}
	srv, serving := w.(server)
	var st0, st1 serve.Stats
	if serving {
		st0 = srv.server().srv.Stats()
	}
	snap0 := in.reg.Snapshot()
	in.drain()
	pb, err := runPhase(w, half, in.afterOp(serving), stderr)
	snap1 := in.reg.Snapshot()
	if serving && err == nil {
		st1 = srv.server().srv.Stats()
	}
	w.stop()
	if err != nil {
		return nil, err
	}
	_, child1 := cpuTime()
	probes = append(probes, probeHost())

	lp, err := probeLayers(w)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	tp, err := probeTransport(cfg.seed, cfg.nodeBin)
	if err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}

	ops := float64(pb.attempted)
	d := newRegDelta(snap0, snap1)
	mf := d.counter("lapcc_maxflow_runs_total")
	solves := d.counter("lapcc_lapsolver_solves_total")
	lookups := float64(st1.PoolHits - st0.PoolHits + st1.PoolMisses - st0.PoolMisses)
	admitted := float64(st1.Requests-st0.Requests) + float64(st1.Shed-st0.Shed)
	ipmWall, _ := in.spanLeafWall("ipm")
	roundWall, _ := in.spanLeafWall("round")
	flowWall := in.spanWall["maxflow"] + in.spanWall["mcmf"]
	orientMs := lp.orientMs
	if wall, calls := in.spanLeafWall("euler-orient"); calls > 0 {
		orientMs = float64(wall.Nanoseconds()) / 1e6 / float64(calls)
	}
	triads, spins, steals := make([]float64, len(probes)), make([]float64, len(probes)), make([]float64, len(probes))
	for i, p := range probes {
		triads[i], spins[i], steals[i] = p.triad, p.spin, p.steal
	}
	wallTail, _, err := tail(pa.lat, tailMinBeyond)
	if err != nil {
		return nil, err
	}

	m := map[string]metric{
		"serve.handler_ms":    {median(in.handlerMs), "ms"},
		"serve.wire_ms":       {median(in.wireMs), "ms"},
		"serve.decode_ms":     {lp.decodeMs, "ms"},
		"serve.pool_hit_frac": {ratio(float64(st1.PoolHits-st0.PoolHits), lookups), "fraction"},
		"serve.shed_frac":     {ratio(float64(st1.Shed-st0.Shed), admitted), "fraction"},

		"sparsify.build_ms":              {lp.buildMs, "ms"},
		"sparsify.h_edges_per_m":         {lp.hEdgesPerM, "ratio"},
		"sparsify.levels_per_build":      {lp.levels, "count"},
		"sparsify.chain_reuse_per_op":    {d.counter("lapcc_sparsify_chain_reuse_total") / ops, "count"},
		"sparsify.chain_rebuilds_per_op": {d.counter("lapcc_sparsify_chain_rebuilds_total") / ops, "count"},

		"lapsolver.cheby_iters_per_solve": {ratio(d.counter("lapcc_lapsolver_cheby_iterations_total"), solves), "count"},
		"lapsolver.attempts_per_solve":    {ratio(d.counter("lapcc_lapsolver_kappa_attempts_total"), solves), "count"},
		"lapsolver.escalations_per_solve": {ratio(d.counter("lapcc_lapsolver_escalations_total"), solves), "count"},
		"lapsolver.solve_ms":              {lp.solveMs, "ms"},
		"lapsolver.inner_solve_ms":        {lp.innerMs, "ms"},
		"lapsolver.inner_share":           {ratio(lp.innerMs*lp.iters, lp.solveMs), "fraction"},

		"linalg.apply_per_op":               {d.counterWith("lapcc_linalg_kernel_calls_total", "kernel=apply") / ops, "count"},
		"linalg.vec_kernels_per_op":         {(d.counter("lapcc_linalg_kernel_calls_total") - d.counterWith("lapcc_linalg_kernel_calls_total", "kernel=apply")) / ops, "count"},
		"linalg.pool_dispatch_per_op":       {d.counter("lapcc_linalg_parallel_dispatch_total") / ops, "count"},
		"linalg.apply_us":                   {lp.applyUs, "us"},
		"linalg.apply_gbps_computed":        {lp.applyGBps, "GB/s"},
		"linalg.pool_speedup":               {lp.poolSpeedup, "ratio"},
		"cc.engine_rounds_per_op":           {(d.counter("lapcc_engine_rounds_total") + d.counter("lapcc_route_rounds_total")) / ops, "rounds"},
		"cc.messages_per_op":                {(d.counter("lapcc_engine_messages_total") + d.counter("lapcc_route_messages_total")) / ops, "count"},
		"cc.words_per_op":                   {(d.counter("lapcc_engine_words_total") + d.counter("lapcc_route_words_total")) / ops, "count"},
		"cc.route_calls_per_op":             {(d.histCount("lapcc_route_call_messages") + d.counter("lapcc_route_broadcasts_total")) / ops, "count"},
		"cc.route_messages_per_op":          {d.counter("lapcc_route_messages_total") / ops, "count"},
		"maxflow.ipm_iters_per_op":          {ratio(d.counter("lapcc_maxflow_ipm_iterations_total"), mf), "count"},
		"maxflow.boostings_per_op":          {ratio(d.counter("lapcc_maxflow_boostings_total"), mf), "count"},
		"electrical.solves_per_op":          {d.counter("lapcc_electrical_solves_total") / ops, "count"},
		"electrical.dense_fallbacks_per_op": {d.counter("lapcc_electrical_dense_fallbacks_total") / ops, "count"},
		"flow.ipm_share":                    {ratio(float64(ipmWall), float64(flowWall)), "fraction"},
		"flow.round_share":                  {ratio(float64(roundWall), float64(flowWall)), "fraction"},
		"euler.orient_ms":                   {orientMs, "ms"},

		"transport.deliver_us_per_round":  {tp.deliverUs, "us"},
		"transport.frames_per_round":      {tp.frames, "count"},
		"transport.frame_bytes_per_round": {tp.frameBytes, "bytes"},
		"transport.retransmits_per_op":    {tp.retransmitsPerOp, "count"},
		"transport.codec_us_per_round":    {tp.codecUs, "us"},
		"transport.boot_s":                {tp.bootS, "s"},

		"proc.cpu_ms_per_op":   {(sum(pb.cpu) + float64((child1-child0).Nanoseconds())/1e6) / ops, "ms"},
		"host.triad_gbps":      {median(triads), "GB/s"},
		"host.spin_ms":         {median(spins), "ms"},
		"host.spin_steal_frac": {median(steals), "fraction"},
		"trace_overhead_frac":  {median(pb.cpu)/median(pa.cpu) - 1, "fraction"},

		"wall.op_p50_ms":  {median(pa.lat), "ms"},
		"wall.op_tail_ms": {wallTail, "ms"},
		"wall.ops_per_s":  {float64(pa.ok) / (sum(pa.lat) / 1e3), "1/s"},
		"wall.setup_s":    {setupWall, "s"},
	}
	attempted := pa.attempted + pb.attempted
	ok := pa.ok + pb.ok
	return &report{Correct: ok == attempted, Attempted: attempted, Failed: attempted - ok, Metrics: m}, nil
}

// layerProbes are the figures phase C measures directly.
type layerProbes struct {
	buildMs, hEdgesPerM, levels     float64
	solveMs, iters, innerMs         float64
	applyUs, applyGBps, poolSpeedup float64
	orientMs, decodeMs              float64
}

// probeReps is how many times each direct probe repeats; it reports the
// median.
const probeReps = 3

// timeMs runs f reps times and returns the median wall time in ms.
func timeMs(reps int, f func() error) (float64, error) {
	var xs []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(xs), nil
}

// probeLayers times public functions on the workload's operands: the
// sparsifier build, a prebuilt solver's Solve, one internal CG on L_H at the
// default and at one worker, L_H.Apply, an orientation (serve workloads),
// and the daemon's decode of a solve body (serve workloads).
func probeLayers(w workload) (layerProbes, error) {
	var lp layerProbes
	ops := w.operands()
	g := ops.lap

	var res *sparsify.Result
	var err error
	if lp.buildMs, err = timeMs(probeReps, func() error {
		res, err = sparsify.Sparsify(g, sparsify.Options{})
		return err
	}); err != nil {
		return lp, err
	}
	lp.hEdgesPerM = float64(res.H.M()) / float64(g.M())
	lp.levels = float64(res.Levels)

	solver, err := lapsolver.NewSolver(g, lapsolver.Options{})
	if err != nil {
		return lp, err
	}
	b := poles(rngFor(0, 0), g.N())
	dense := denseRHS(g.N())
	if lp.solveMs, err = timeMs(probeReps, func() error {
		_, st, err := solver.Solve(b, hotEps)
		lp.iters = float64(st.Iterations)
		return err
	}); err != nil {
		return lp, err
	}

	h := solver.Sparsifier()
	lh := linalg.NewLaplacian(h)
	lh.SetPool(linalg.SharedPool(0))
	lh1 := linalg.NewLaplacian(h)
	inner, inner1 := linalg.LaplacianCGSolver(lh, 1e-13), linalg.LaplacianCGSolver(lh1, 1e-13)
	if lp.innerMs, err = timeMs(2*probeReps+1, func() error { _, err := inner(dense); return err }); err != nil {
		return lp, err
	}
	seqMs, err := timeMs(2*probeReps+1, func() error { _, err := inner1(dense); return err })
	if err != nil {
		return lp, err
	}
	lp.poolSpeedup = seqMs / lp.innerMs

	lp.applyUs = applyUs(lh, dense)
	lp.applyGBps = applyBytes(h, lh.Pool() != nil) / (lp.applyUs * 1e3)

	if ops.eulerian != nil {
		if lp.orientMs, err = timeMs(probeReps, func() error {
			_, err := core.Do(core.Request{Op: core.OpOrient, Graph: ops.eulerian})
			return err
		}); err != nil {
			return lp, err
		}
	}

	if _, ok := w.(server); ok {
		body, err := solveBody(g, b, hotEps)
		if err != nil {
			return lp, err
		}
		if lp.decodeMs, err = timeMs(probeReps, func() error {
			var req serve.SolveRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			_, err := req.Graph.Graph()
			return err
		}); err != nil {
			return lp, err
		}
	}

	return lp, nil
}

// denseRHS is a dense zero-sum right-hand side, the shape of the residuals
// the Chebyshev iteration hands its internal sparsifier solve.
func denseRHS(n int) linalg.Vec {
	rng := rngFor(0, 2)
	b := linalg.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b.RemoveMean()
	return b
}

// applyUs is the median time of one L.Apply in microseconds, over batches
// long enough to dwarf the clock.
func applyUs(l *linalg.Laplacian, src linalg.Vec) float64 {
	const batches, per = 15, 200
	dst := linalg.NewVec(len(src))
	var xs []float64
	for k := 0; k < batches; k++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			l.Apply(dst, src)
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3/per)
	}
	return median(xs)
}

// applyBytes is the computed traffic of one Apply on h's Laplacian: every
// operator array and vector touched once. The pooled path sweeps CSR
// incidence rows (row pointers, pair index and opposite endpoint per
// incidence, one pair weight gathered per incidence); the sequential path
// walks the coalesced pair list (two endpoints and a weight per pair).
// Both read the degree and source vectors and write the destination.
func applyBytes(h *graph.Graph, pooled bool) float64 {
	n := float64(h.N())
	type pair struct{ u, v int }
	seen := map[pair]bool{}
	for _, e := range h.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		seen[pair{u, v}] = true
	}
	p := float64(len(seen))
	vectors := 3 * 8 * n
	if pooled {
		return vectors + 4*(n+1) + 2*p*(4+4+8)
	}
	return vectors + p*(4+4+8)
}
