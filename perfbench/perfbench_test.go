package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		v, pct, err := tail(xs, tailMinBeyond)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value %v, want %d", n, beyond, v, tailMinBeyond)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if _, _, err := tail(make([]float64, tailMinBeyond), tailMinBeyond); err == nil {
		t.Error("tail of 10 samples should fail: no percentile has 10 samples beyond it")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(32, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckSolveRejectsNudgedAnswer(t *testing.T) {
	g := smallGraph(t)
	b := poles(rngFor(1, 1), g.N())
	resp, err := core.Do(core.Request{Op: core.OpSolve, Graph: g, Args: core.Args{B: b, Eps: 1e-8}})
	if err != nil {
		t.Fatal(err)
	}
	x := resp.Laplacian.X
	if err := checkSolve(g, b, x, 1e-8); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	bad := x.Clone()
	bad[3] += 1e-4
	if err := checkSolve(g, b, bad, 1e-8); err == nil {
		t.Error("nudged answer accepted")
	}
	if err := checkSameBits(x, x.Clone()); err != nil {
		t.Errorf("identical answers rejected: %v", err)
	}
	bad = x.Clone()
	bad[0] = math.Nextafter(bad[0], math.Inf(1))
	if err := checkSameBits(bad, x); err == nil {
		t.Error("answer one ulp off accepted as bit-identical")
	}
}

func TestCheckMaxFlowRejectsMovedUnit(t *testing.T) {
	dg := graph.LayeredDAG(3, 4, 2, 8, 21)
	s, tt := 0, dg.N()-1
	value, flow, err := maxflow.Dinic(dg, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMaxFlow(dg, s, tt, flow, value, value); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	// Move one unit off some carrying arc: conservation breaks at its head.
	moved := append([]int64(nil), flow...)
	for i, a := range dg.Arcs() {
		if moved[i] > 0 && a.From != s {
			moved[i]--
			break
		}
	}
	if err := checkMaxFlow(dg, s, tt, moved, value, value); err == nil {
		t.Error("flow with one unit moved accepted")
	}
	if err := checkMaxFlow(dg, s, tt, flow, value, value+1); err == nil {
		t.Error("value below the oracle's accepted")
	}
}

func TestCheckMinCostRejectsMovedUnit(t *testing.T) {
	dg := graph.RandomUnitBipartite(6, 6, 3, 16, 7)
	sigma, err := matchingDemand(dg, 6)
	if err != nil {
		t.Fatal(err)
	}
	flow, cost, err := mcmf.Solve(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMinCost(dg, sigma, flow, cost, cost); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	// Reroute one unit to another arc of the same left vertex.
	moved := append([]int64(nil), flow...)
	arcs := dg.Arcs()
	done := false
	for i := range arcs {
		for j := range arcs {
			if !done && moved[i] == 1 && moved[j] == 0 && arcs[i].From == arcs[j].From && arcs[i].To != arcs[j].To {
				moved[i], moved[j] = 0, 1
				done = true
			}
		}
	}
	if !done {
		t.Fatal("no reroutable unit in the instance")
	}
	if err := checkMinCost(dg, sigma, moved, cost, cost); err == nil {
		t.Error("routing with one unit moved accepted")
	}
	if err := checkMinCost(dg, sigma, flow, cost, cost-1); err == nil {
		t.Error("cost above the oracle's accepted")
	}
}

func TestCheckOrientRejectsFlippedEdge(t *testing.T) {
	g := smallGraph(t)
	resp, err := core.Do(core.Request{Op: core.OpOrient, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	orient := resp.Eulerian.Orient
	if err := checkOrient(g, orient); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	flipped := append([]bool(nil), orient...)
	flipped[0] = !flipped[0]
	if err := checkOrient(g, flipped); err == nil {
		t.Error("orientation with a flipped edge accepted")
	}
}

func TestCheckSparsifierRejectsBadSizeOrVertexSet(t *testing.T) {
	g := smallGraph(t)
	resp, err := core.Do(core.Request{Op: core.OpSparsify, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSparsifier(g, resp.Sparsifier.H); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	if err := checkSparsifier(g, graph.Path(g.N()-1)); err == nil {
		t.Error("sparsifier on a smaller vertex set accepted")
	}
	big := graph.New(g.N())
	for big.M() <= sparsifierBound(g) {
		big.MustAddEdge(0, 1, 1)
	}
	if err := checkSparsifier(g, big); err == nil {
		t.Error("sparsifier above the size bound accepted")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the printed metrics must
// match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the flow-ipm workload twice")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, mode := range []struct {
		trace string
		want  map[string]string
	}{
		{"0", units(spec.EndToEnd)},
		{"1", units(spec.PerLayer)},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "flow-ipm", "--seed", "3", "--seconds", "0.01", "--trace", mode.trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", mode.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("--trace %s: last line is not the report: %v", mode.trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < minOps {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", mode.trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		for name, unit := range mode.want {
			m, ok := rep.Metrics[name]
			if !ok {
				t.Errorf("--trace %s: %s not printed", mode.trace, name)
				continue
			}
			if m.Unit != unit {
				t.Errorf("--trace %s: %s printed in %q, BENCHMARK.json says %q", mode.trace, name, m.Unit, unit)
			}
		}
		for name := range rep.Metrics {
			if _, ok := mode.want[name]; !ok {
				t.Errorf("--trace %s: %s printed but not in BENCHMARK.json", mode.trace, name)
			}
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	u := map[string]string{}
	for _, m := range ms {
		u[m.Name] = m.Unit
	}
	return u
}

func TestUnknownWorkloadPrintsNothing(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
