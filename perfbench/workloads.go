package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
	"lapcc/internal/serve"
	"lapcc/internal/trace"
)

// workload is one benchmark workload. Its inputs are generated from the
// seed when it is constructed (untimed); start brings up the program side
// (timed as set-up); prepare builds op i's request outside the timed span
// and returns the call that is timed.
type workload interface {
	start(in *instruments) error
	prepare(i int) (func() (opResult, error), error)
	stop()
	// exactOps is the length of the op prefix rounds_per_op averages over:
	// a fixed slice of the deterministic op sequence, so the figure is an
	// exact count that does not depend on how many ops a run fits.
	exactOps() int
	// operands are the workload's own inputs the traced run's direct layer
	// probes run on.
	operands() operands
}

// opResult is one timed op's outcome: its congested-clique rounds, the
// check that verifies its answer (run outside the timed span), and the
// op's tracer when the traced run attached one.
type opResult struct {
	rounds int64
	check  func() error
	tr     *trace.Tracer
}

// operands are the inputs of the direct layer probes.
type operands struct {
	// lap is a connected weighted graph for the sparsifier, solver, kernel
	// and decode probes.
	lap *graph.Graph
	// eulerian is an even-degree graph for the orientation probe (nil when
	// the workload's own traced ops orient).
	eulerian *graph.Graph
}

// newWorkload constructs the named workload with inputs drawn from seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "solve-hot":
		return newSolveHot(seed)
	case "serve-cold":
		return &serveCold{seed: seed}, nil
	case "flow-ipm":
		return newFlowIPM(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want solve-hot, serve-cold or flow-ipm)", name)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"solve-hot", "serve-cold", "flow-ipm"}

// rngFor returns the generator of stream k under seed: every input of a run
// is drawn from (seed, k), so a seed fixes the whole op sequence.
func rngFor(seed, k int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + k))
}

// poles returns a pole-pair right-hand side e_u - e_v on n vertices.
func poles(rng *rand.Rand, n int) linalg.Vec {
	b := linalg.NewVec(n)
	u := rng.Intn(n)
	v := (u + 1 + rng.Intn(n-1)) % n
	b[u], b[v] = 1, -1
	return b
}

// withWeights returns a copy of g carrying weight w(i) on edge i.
func withWeights(g *graph.Graph, w func(i int) float64) *graph.Graph {
	c := g.Clone()
	ws := make([]float64, c.M())
	for i := range ws {
		ws[i] = w(i)
	}
	if err := c.SetWeights(ws); err != nil {
		panic(err) // positive finite weights by construction
	}
	return c
}

func solveBody(g *graph.Graph, b linalg.Vec, eps float64) ([]byte, error) {
	wg := serve.ToWireGraph(g)
	return json.Marshal(serve.SolveRequest{Graph: &wg, RHS: [][]float64{b}, Eps: eps})
}

func graphBody(g *graph.Graph) ([]byte, error) {
	wg := serve.ToWireGraph(g)
	return json.Marshal(serve.SparsifyRequest{Graph: &wg})
}

// coldSolve is the one-shot facade answer a pooled solve must match bit
// for bit.
func coldSolve(g *graph.Graph, b linalg.Vec, eps float64) (linalg.Vec, error) {
	resp, err := core.Do(core.Request{Op: core.OpSolve, Graph: g, Args: core.Args{B: b, Eps: eps}})
	if err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	return resp.Laplacian.X, nil
}

// --- solve-hot ------------------------------------------------------------

const (
	hotN          = 512
	hotDegree     = 8
	hotTopologies = 3
	hotEps        = 1e-8
)

// solveHot drives /v1/solve on a few warmed topologies: every timed request
// is an exact-reuse pool hit (weights stay in one binary class).
type solveHot struct {
	seed   int64
	graphs []*graph.Graph
	d      *daemon
}

func newSolveHot(seed int64) (*solveHot, error) {
	w := &solveHot{seed: seed}
	for t := 0; t < hotTopologies; t++ {
		g, err := graph.RandomRegular(hotN, hotDegree, seed*31+int64(t))
		if err != nil {
			return nil, err
		}
		w.graphs = append(w.graphs, g)
	}
	return w, nil
}

// input is request i's graph (topology i mod hotTopologies, weights in
// [1.1, 1.9)) and pole-pair right-hand side. Warm-up requests use negative i.
func (w *solveHot) input(i int) (*graph.Graph, linalg.Vec) {
	rng := rngFor(w.seed, int64(i))
	topo := w.graphs[((i%hotTopologies)+hotTopologies)%hotTopologies]
	g := withWeights(topo, func(int) float64 { return 1.1 + 0.8*rng.Float64() })
	return g, poles(rng, hotN)
}

func (w *solveHot) start(in *instruments) error {
	d, err := startDaemon(serve.Options{Metrics: in.registry()}, in.middleware())
	if err != nil {
		return err
	}
	w.d = d
	for t := 0; t < hotTopologies; t++ {
		g, b := w.input(-1 - t)
		body, err := solveBody(g, b, hotEps)
		if err != nil {
			return err
		}
		var resp serve.SolveResponse
		if err := d.post("/v1/solve", body, &resp); err != nil {
			return fmt.Errorf("warm topology %d: %w", t, err)
		}
	}
	return nil
}

func (w *solveHot) prepare(i int) (func() (opResult, error), error) {
	g, b := w.input(i)
	body, err := solveBody(g, b, hotEps)
	if err != nil {
		return nil, err
	}
	return func() (opResult, error) {
		var resp serve.SolveResponse
		if err := w.d.post("/v1/solve", body, &resp); err != nil {
			return opResult{}, err
		}
		return opResult{rounds: resp.Rounds.Total, check: func() error {
			if !resp.Cached {
				return fmt.Errorf("solve-hot: request %d missed the warmed pool", i)
			}
			if len(resp.X) != 1 {
				return fmt.Errorf("solve-hot: %d answers for one right-hand side", len(resp.X))
			}
			x := linalg.Vec(resp.X[0])
			if err := checkSolve(g, b, x, hotEps); err != nil {
				return err
			}
			if i < hotTopologies { // first timed request on each topology
				cold, err := coldSolve(g, b, hotEps)
				if err != nil {
					return err
				}
				return checkSameBits(x, cold)
			}
			return nil
		}}, nil
	}, nil
}

func (w *solveHot) stop() {
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
}

func (w *solveHot) exactOps() int { return 2 * hotTopologies }

func (w *solveHot) operands() operands {
	return operands{lap: w.graphs[0], eulerian: w.graphs[0]}
}

// --- serve-cold -----------------------------------------------------------

const (
	coldN         = 256
	coldDegree    = 6
	coldPoolSize  = 8 // the daemon's default PoolSize
	coldEps       = 1e-8
	coldBitChecks = 4 // leading solve ops also checked against a cold facade run
)

// coldMix is the op cycle of serve-cold: sparsify:solve:orient = 3:1:1.
// The kinds' costs do not overlap (orient < sparsify < solve), so the
// median of a mix sits inside one kind's costs only when that kind holds
// the middle of the order by itself; with sparsify at three fifths the
// median is the middle of the sparsify costs, the densest place there is.
// With solves at three fifths instead, it sat in the thin low tail of the
// solve costs and moved by a fifth from run to run.
var coldMix = []string{"sparsify", "solve", "sparsify", "orient", "sparsify"}

// serveCold sends every request on a topology the daemon has never seen,
// after filling the sparsify pool, so each request builds and the LRUs
// evict.
type serveCold struct {
	seed      int64
	d         *daemon
	bitChecks int
}

// input is request i's graph: a fresh RandomRegular topology with weights
// spread over four binary classes. Warm-up requests use negative i.
func (w *serveCold) input(i int) (*graph.Graph, linalg.Vec, error) {
	rng := rngFor(w.seed, 1_000_000+int64(i))
	topo, err := graph.RandomRegular(coldN, coldDegree, rng.Int63())
	if err != nil {
		return nil, nil, err
	}
	g := withWeights(topo, func(int) float64 { return float64(int(1)<<rng.Intn(4)) * (1 + rng.Float64()) })
	return g, poles(rng, coldN), nil
}

func (w *serveCold) start(in *instruments) error {
	d, err := startDaemon(serve.Options{PoolSize: coldPoolSize, Metrics: in.registry()}, in.middleware())
	if err != nil {
		return err
	}
	w.d = d
	w.bitChecks = 0
	// Warm-up: fill the sparsify pool, so the timed requests run against a
	// daemon whose LRU is already at capacity.
	for t := 0; t < coldPoolSize; t++ {
		g, _, err := w.input(-1 - t)
		if err != nil {
			return err
		}
		body, err := graphBody(g)
		if err != nil {
			return err
		}
		var resp serve.SparsifyResponse
		if err := d.post("/v1/sparsify", body, &resp); err != nil {
			return fmt.Errorf("warm pool entry %d: %w", t, err)
		}
	}
	return nil
}

func (w *serveCold) prepare(i int) (func() (opResult, error), error) {
	g, b, err := w.input(i)
	if err != nil {
		return nil, err
	}
	switch coldMix[i%len(coldMix)] {
	case "solve":
		body, err := solveBody(g, b, coldEps)
		if err != nil {
			return nil, err
		}
		return func() (opResult, error) {
			var resp serve.SolveResponse
			if err := w.d.post("/v1/solve", body, &resp); err != nil {
				return opResult{}, err
			}
			return opResult{rounds: resp.Rounds.Total, check: func() error {
				if resp.Cached || len(resp.X) != 1 {
					return fmt.Errorf("serve-cold: request %d: cached=%v, %d answers", i, resp.Cached, len(resp.X))
				}
				x := linalg.Vec(resp.X[0])
				if err := checkSolve(g, b, x, coldEps); err != nil {
					return err
				}
				if w.bitChecks < coldBitChecks {
					w.bitChecks++
					cold, err := coldSolve(g, b, coldEps)
					if err != nil {
						return err
					}
					return checkSameBits(x, cold)
				}
				return nil
			}}, nil
		}, nil
	case "sparsify":
		body, err := graphBody(g)
		if err != nil {
			return nil, err
		}
		return func() (opResult, error) {
			var resp serve.SparsifyResponse
			if err := w.d.post("/v1/sparsify", body, &resp); err != nil {
				return opResult{}, err
			}
			return opResult{rounds: resp.Rounds.Total, check: func() error {
				if resp.Cached {
					return fmt.Errorf("serve-cold: request %d hit the sparsify pool", i)
				}
				h, err := resp.H.Graph()
				if err != nil {
					return err
				}
				return checkSparsifier(g, h)
			}}, nil
		}, nil
	default: // orient
		body, err := graphBody(g)
		if err != nil {
			return nil, err
		}
		return func() (opResult, error) {
			var resp serve.OrientResponse
			if err := w.d.post("/v1/orient", body, &resp); err != nil {
				return opResult{}, err
			}
			return opResult{rounds: resp.Rounds.Total, check: func() error {
				return checkOrient(g, resp.Orient)
			}}, nil
		}, nil
	}
}

func (w *serveCold) stop() {
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
}

func (w *serveCold) exactOps() int { return 4 * len(coldMix) }

func (w *serveCold) operands() operands {
	g, _, err := w.input(0)
	if err != nil {
		panic(err) // input 0 was generated by the timed phase already
	}
	return operands{lap: g, eulerian: g}
}

// --- flow-ipm -------------------------------------------------------------

// The flow instances are sized so an op takes a few hundred ms: a 25 s run
// then holds about a hundred ops, which puts op_cpu_tail_ms near p90 rather
// than p95, where a second-long burst from another tenant would decide it.
const (
	flowInstances = 20
	flowDensity   = 4  // arcs per vertex between LayeredDAG layers
	flowSide      = 40 // vertices per side of the min-cost-flow bipartite nets
)

// flowIPM alternates Theorem 1.2 max flow and Theorem 1.3 min-cost flow
// through core.Do, in process, with default run options.
type flowIPM struct {
	maxNets  []*graph.DiGraph
	maxWant  []int64
	costNets []*graph.DiGraph
	sigmas   [][]int64
	costWant []int64
	in       *instruments
}

func newFlowIPM(seed int64) (*flowIPM, error) {
	w := &flowIPM{}
	for k := 0; k < flowInstances; k++ {
		rng := rngFor(seed, 2_000_000+int64(k))
		dg := graph.LayeredDAG(4, 30, flowDensity, 8, rng.Int63())
		want, _, err := maxflow.Dinic(dg, 0, dg.N()-1)
		if err != nil {
			return nil, err
		}
		w.maxNets, w.maxWant = append(w.maxNets, dg), append(w.maxWant, want)

		bip := graph.RandomUnitBipartite(flowSide, flowSide, 3, 16, rng.Int63())
		sigma, err := matchingDemand(bip, flowSide)
		if err != nil {
			return nil, err
		}
		_, cost, err := mcmf.Solve(bip, sigma)
		if err != nil {
			return nil, err
		}
		w.costNets, w.sigmas, w.costWant = append(w.costNets, bip), append(w.sigmas, sigma), append(w.costWant, cost)
	}
	return w, nil
}

// matchingDemand returns the demand vector of a maximum matching of the
// bipartite net (left vertices first): each matched left vertex supplies
// one unit to its partner, so the demand is routable by construction.
func matchingDemand(dg *graph.DiGraph, left int) ([]int64, error) {
	n := dg.N()
	s, t := n, n+1
	net := graph.NewDi(n + 2)
	for u := 0; u < left; u++ {
		net.MustAddArc(s, u, 1, 0)
	}
	for _, a := range dg.Arcs() {
		net.MustAddArc(a.From, a.To, 1, 0)
	}
	for v := left; v < n; v++ {
		net.MustAddArc(v, t, 1, 0)
	}
	_, flow, err := maxflow.Dinic(net, s, t)
	if err != nil {
		return nil, err
	}
	sigma := make([]int64, n)
	for i, a := range net.Arcs() {
		if flow[i] == 1 && a.From < left { // a left-to-right arc of dg
			sigma[a.From], sigma[a.To] = 1, -1
		}
	}
	return sigma, nil
}

func (w *flowIPM) start(in *instruments) error {
	w.in = in
	// Warm-up: one op of each kind, so lazy initialisation is set-up.
	for i := 0; i < 2; i++ {
		run, err := w.prepare(i)
		if err != nil {
			return err
		}
		if _, err := run(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *flowIPM) prepare(i int) (func() (opResult, error), error) {
	k := (i / 2) % flowInstances
	tr := w.in.tracer()
	ro := core.RunOptions{Metrics: w.in.registry(), Trace: tr}
	if i%2 == 0 {
		dg, want := w.maxNets[k], w.maxWant[k]
		return func() (opResult, error) {
			resp, err := core.Do(core.Request{Op: core.OpMaxFlow, DiGraph: dg,
				Args: core.Args{Source: 0, Sink: dg.N() - 1}, Run: ro})
			if err != nil {
				return opResult{}, err
			}
			r := resp.MaxFlow
			return opResult{rounds: resp.Rounds.Total, tr: tr, check: func() error {
				return checkMaxFlow(dg, 0, dg.N()-1, r.Flow, r.Value, want)
			}}, nil
		}, nil
	}
	dg, sigma, want := w.costNets[k], w.sigmas[k], w.costWant[k]
	return func() (opResult, error) {
		resp, err := core.Do(core.Request{Op: core.OpMinCostFlow, DiGraph: dg,
			Args: core.Args{Sigma: sigma}, Run: ro})
		if err != nil {
			return opResult{}, err
		}
		r := resp.MinCostFlow
		return opResult{rounds: resp.Rounds.Total, tr: tr, check: func() error {
			return checkMinCost(dg, sigma, r.Flow, r.Cost, want)
		}}, nil
	}, nil
}

func (w *flowIPM) stop() {}

func (w *flowIPM) exactOps() int { return 2 * flowInstances }

func (w *flowIPM) operands() operands {
	return operands{lap: undirectedCore(w.maxNets[0])}
}

// undirectedCore returns the undirected support of dg (capacities as
// weights) restricted to its largest connected component.
func undirectedCore(dg *graph.DiGraph) *graph.Graph {
	g := graph.New(dg.N())
	for _, a := range dg.Arcs() {
		g.MustAddEdge(a.From, a.To, float64(a.Cap))
	}
	var best []int
	for _, c := range g.Components() {
		if len(c) > len(best) {
			best = c
		}
	}
	sub, _, err := g.Subgraph(best)
	if err != nil {
		panic(err) // a component of g is a valid vertex set
	}
	return sub
}
