package main

import (
	"fmt"
	"math"

	"lapcc/internal/euler"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
)

// refTol is the relative-residual tolerance of the reference solve the
// Laplacian answers are judged against; it is four orders tighter than the
// loosest eps the workloads request.
const refTol = 1e-12

// certSlack absorbs the reference solve's own error when comparing an
// answer's L-norm error against eps.
const certSlack = 1.01

// checkSolve verifies x against the Theorem 1.1 certificate
// ||x - L^+ b||_L <= eps ||L^+ b||_L, with L^+ b from a tight reference CG
// on g itself.
func checkSolve(g *graph.Graph, b, x linalg.Vec, eps float64) error {
	if len(x) != g.N() {
		return fmt.Errorf("solve: %d potentials for n=%d", len(x), g.N())
	}
	l := linalg.NewLaplacian(g)
	ref, err := linalg.LaplacianCGSolver(l, refTol)(b)
	if err != nil {
		return fmt.Errorf("solve: reference: %w", err)
	}
	diff := linalg.NewVec(len(x))
	for i := range x {
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return fmt.Errorf("solve: potential %d is %v", i, x[i])
		}
		diff[i] = x[i] - ref[i]
	}
	errL, refL := l.Norm(diff), l.Norm(ref)
	if !(errL <= certSlack*eps*refL) {
		return fmt.Errorf("solve: L-norm error %.3g of %.3g exceeds eps %g", errL, refL, eps)
	}
	return nil
}

// checkSameBits verifies that two answers are bit-identical.
func checkSameBits(got, want linalg.Vec) error {
	if len(got) != len(want) {
		return fmt.Errorf("bit identity: %d vs %d entries", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("bit identity: entry %d is %v, cold run gave %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkMaxFlow verifies a max-flow answer: the flow is feasible
// (maxflow.CheckFlow), carries the claimed value, and that value equals the
// Dinic oracle's.
func checkMaxFlow(dg *graph.DiGraph, s, t int, flow []int64, value, want int64) error {
	got, err := maxflow.CheckFlow(dg, flow, s, t)
	if err != nil {
		return err
	}
	if got != value {
		return fmt.Errorf("maxflow: flow carries %d, answer claims %d", got, value)
	}
	if value != want {
		return fmt.Errorf("maxflow: value %d, Dinic gives %d", value, want)
	}
	return nil
}

// checkMinCost verifies a min-cost-flow answer: the flow routes sigma within
// capacities (mcmf.CheckRouting), costs what the answer claims, and that
// cost equals the successive-shortest-path oracle's.
func checkMinCost(dg *graph.DiGraph, sigma, flow []int64, cost, want int64) error {
	got, err := mcmf.CheckRouting(dg, flow, sigma)
	if err != nil {
		return err
	}
	if got != cost {
		return fmt.Errorf("mincostflow: flow costs %d, answer claims %d", got, cost)
	}
	if cost != want {
		return fmt.Errorf("mincostflow: cost %d, oracle gives %d", cost, want)
	}
	return nil
}

// checkOrient verifies an Eulerian orientation: one bit per edge and every
// vertex balanced.
func checkOrient(g *graph.Graph, orient []bool) error {
	if len(orient) != g.M() {
		return fmt.Errorf("orient: %d bits for m=%d", len(orient), g.M())
	}
	if v := euler.CheckOrientation(g, orient); v >= 0 {
		return fmt.Errorf("orient: vertex %d unbalanced", v)
	}
	return nil
}

// sparsifierBound is the concrete Theorem 3.3 size bound the checker
// enforces: O(n polylog n log U) instantiated as n * ceil(log2 n)^2 edges per
// binary weight class of g.
func sparsifierBound(g *graph.Graph) int {
	classes := map[int]bool{}
	for _, e := range g.Edges() {
		classes[int(math.Floor(math.Log2(e.W)))] = true
	}
	lg := int(math.Ceil(math.Log2(float64(g.N()))))
	return g.N() * lg * lg * len(classes)
}

// checkSparsifier verifies a sparsifier: same vertex set as g, at least one
// edge, and an edge count within the Theorem 3.3 size bound.
func checkSparsifier(g, h *graph.Graph) error {
	if h.N() != g.N() {
		return fmt.Errorf("sparsify: %d vertices for n=%d", h.N(), g.N())
	}
	if h.M() == 0 || h.M() > sparsifierBound(g) {
		return fmt.Errorf("sparsify: %d edges outside (0, %d]", h.M(), sparsifierBound(g))
	}
	return nil
}
