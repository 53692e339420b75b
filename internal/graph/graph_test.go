package graph

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	if !g.IsEulerian() {
		t.Fatal("empty graph should be Eulerian (all degrees 0)")
	}
}

func TestAddEdgeNormalizesEndpoints(t *testing.T) {
	g := New(3)
	id, err := g.AddEdge(2, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(id)
	if e.U != 1 || e.V != 2 {
		t.Fatalf("edge stored as (%d,%d), want normalized (1,2)", e.U, e.V)
	}
	if e.W != 1.5 {
		t.Fatalf("weight %v, want 1.5", e.W)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	cases := []struct {
		name    string
		u, v    int
		w       float64
		wantErr error
	}{
		{"out of range low", -1, 0, 1, ErrVertexRange},
		{"out of range high", 0, 3, 1, ErrVertexRange},
		{"self loop", 1, 1, 1, ErrSelfLoop},
		{"zero weight", 0, 1, 0, ErrBadWeight},
		{"negative weight", 0, 1, -2, ErrBadWeight},
		{"nan weight", 0, 1, nan(), ErrBadWeight},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := g.AddEdge(c.u, c.v, c.w); !errors.Is(err, c.wantErr) {
				t.Fatalf("AddEdge(%d,%d,%v) error = %v, want %v", c.u, c.v, c.w, err, c.wantErr)
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestDegreesAndWeights(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(0, 1, 5) // parallel edge
	if got := g.Degree(0); got != 3 {
		t.Fatalf("Degree(0) = %d, want 3", got)
	}
	if got := g.WeightedDegree(0); got != 10 {
		t.Fatalf("WeightedDegree(0) = %v, want 10", got)
	}
	if got := g.WeightedDegree(3); got != 0 {
		t.Fatalf("WeightedDegree(3) = %v, want 0", got)
	}
	if got := g.TotalWeight(); got != 10 {
		t.Fatalf("TotalWeight() = %v, want 10", got)
	}
	if got := g.MaxWeight(); got != 5 {
		t.Fatalf("MaxWeight() = %v, want 5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: g.M()=%d c.M()=%d", g.M(), c.M())
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 4, 4)
	s, orig, err := g.Subgraph([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 || s.M() != 2 {
		t.Fatalf("subgraph has n=%d m=%d, want 3, 2", s.N(), s.M())
	}
	if orig[0] != 1 || orig[1] != 2 || orig[2] != 3 {
		t.Fatalf("orig mapping = %v", orig)
	}
	if _, _, err := g.Subgraph([]int{1, 1}); err == nil {
		t.Fatal("duplicate vertex should error")
	}
	if _, _, err := g.Subgraph([]int{7}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("out-of-range vertex error = %v", err)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	want := [][]int{{0, 1}, {2, 3, 4}, {5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestIsEulerian(t *testing.T) {
	c, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsEulerian() {
		t.Fatal("cycle should be Eulerian")
	}
	p := Path(4)
	if p.IsEulerian() {
		t.Fatal("path should not be Eulerian")
	}
}

func TestVolume(t *testing.T) {
	g := Star(4)
	if got := g.Volume([]int{0}); got != 3 {
		t.Fatalf("Volume(center) = %d, want 3", got)
	}
	if got := g.Volume([]int{1, 2, 3}); got != 3 {
		t.Fatalf("Volume(leaves) = %d, want 3", got)
	}
}

// Property: adjacency structure is always consistent with the edge list.
func TestAdjacencyConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < 30; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.MustAddEdge(u, v, 1+rng.Float64())
			}
		}
		// Sum of degrees must be 2m, and each half-edge must point back at a
		// real edge with the right endpoints.
		total := 0
		for v := 0; v < n; v++ {
			total += g.Degree(v)
			for _, h := range g.Adj(v) {
				e := g.Edge(h.Edge)
				if e.U != v && e.V != v {
					return false
				}
				other := e.U
				if other == v {
					other = e.V
				}
				if h.To != other {
					return false
				}
			}
		}
		return total == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMustAddEdgePanicsOnError pins the documented Must* split: the
// error-returning AddEdge is the library path for untrusted input, and the
// Must variant panics — it must never be reached for by code that can see
// malformed graphs.
func TestMustAddEdgePanicsOnError(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddEdge did not panic on a self-loop")
		}
	}()
	g.MustAddEdge(1, 1, 1)
}

// TestRewireEdge checks the endpoint-mutation primitive: the edge keeps its
// index and weight, both adjacency sides are rewritten, the generation
// counter moves, and invalid arguments leave the graph untouched.
func TestRewireEdge(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1.5)
	g.MustAddEdge(1, 2, 2.5)
	g.MustAddEdge(2, 3, 3.5)
	gen := g.Gen()

	if err := g.RewireEdge(1, 4, 0); err != nil {
		t.Fatal(err)
	}
	if g.Gen() != gen+1 {
		t.Fatalf("gen = %d, want %d (rewire must bump the topology generation)", g.Gen(), gen+1)
	}
	e := g.Edge(1)
	if e.U != 0 || e.V != 4 || e.W != 2.5 {
		t.Fatalf("rewired edge = %+v, want {0 4 2.5} (normalized, weight kept)", e)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3 (rewire must not change the edge count)", g.M())
	}
	// Old endpoints no longer reference edge 1; new ones do, exactly once.
	count := func(v int) int {
		n := 0
		for _, h := range g.Adj(v) {
			if h.Edge == 1 {
				if other := g.Edge(1).U + g.Edge(1).V - v; h.To != other {
					t.Fatalf("adj[%d] half points at %d, want %d", v, h.To, other)
				}
				n++
			}
		}
		return n
	}
	for v, want := range map[int]int{0: 1, 4: 1, 1: 0, 2: 0} {
		if got := count(v); got != want {
			t.Fatalf("vertex %d references edge 1 %d times, want %d", v, got, want)
		}
	}

	// Degree bookkeeping survives: every half is consistent.
	if g.Degree(1) != 1 || g.Degree(0) != 2 || g.Degree(4) != 1 {
		t.Fatalf("degrees after rewire: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(4))
	}

	for _, bad := range [][3]int{{-1, 0, 1}, {3, 0, 1}, {0, -1, 2}, {0, 0, 5}, {0, 2, 2}} {
		if err := g.RewireEdge(bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("RewireEdge(%v) accepted invalid arguments", bad)
		}
	}
	if g.Gen() != gen+1 {
		t.Fatal("failed rewires must not bump the generation")
	}

	// AddEdge also moves the generation; SetWeight must not.
	g.MustAddEdge(3, 4, 1)
	if g.Gen() != gen+2 {
		t.Fatalf("AddEdge gen = %d, want %d", g.Gen(), gen+2)
	}
	if err := g.SetWeight(0, 9); err != nil {
		t.Fatal(err)
	}
	if g.Gen() != gen+2 {
		t.Fatal("SetWeight must not bump the topology generation")
	}

	// Clone carries the generation, so caches keyed on Gen stay coherent
	// across clones.
	if c := g.Clone(); c.Gen() != g.Gen() {
		t.Fatalf("clone gen = %d, want %d", c.Gen(), g.Gen())
	}
}

// TestWeightCheck: AddEdge, SetWeight and SetWeights share one weight
// check, accepting (0, 1e300] and naming that cap when they refuse.
func TestWeightCheck(t *testing.T) {
	cases := []struct {
		name string
		w    float64
		ok   bool
	}{
		{"zero", 0, false},
		{"negative", -1, false},
		{"nan", math.NaN(), false},
		{"+inf", math.Inf(1), false},
		{"above cap", 1e308, false},
		{"at cap", 1e300, true},
		{"tiny", 1e-300, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			edge := func() *Graph {
				g := New(2)
				g.MustAddEdge(0, 1, 1)
				return g
			}
			_, errAdd := edge().AddEdge(0, 1, c.w)
			errSet := edge().SetWeight(0, c.w)
			errSets := edge().SetWeights([]float64{c.w})
			for name, err := range map[string]error{"AddEdge": errAdd, "SetWeight": errSet, "SetWeights": errSets} {
				if c.ok {
					if err != nil {
						t.Fatalf("%s(%v): unexpected error %v", name, c.w, err)
					}
					continue
				}
				if !errors.Is(err, ErrBadWeight) {
					t.Fatalf("%s(%v) error = %v, want ErrBadWeight", name, c.w, err)
				}
				if !strings.Contains(err.Error(), "at most 1e300") {
					t.Fatalf("%s(%v) error %q does not name the 1e300 cap", name, c.w, err)
				}
			}
		})
	}
}
