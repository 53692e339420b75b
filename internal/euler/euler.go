// Package euler implements the deterministic Eulerian-orientation algorithm
// of Theorem 1.4: given a graph in which every vertex has even degree,
// orient every edge so that each vertex has equal in- and out-degree, in
// O(log n log* n) congested-clique rounds.
//
// # Algorithm
//
// Following the paper, each vertex internally pairs its incident edges,
// which induces an implicit decomposition of the edge set into closed walks.
// The simulation works on *directed states*: state 2e+1 represents the
// traversal of edge e from e.U into e.V (owned by clique node e.V), state
// 2e+0 the reverse (owned by e.U). The pairing defines a successor
// permutation on the 2m states whose orbits are directed cycles; every
// undirected closed walk appears as two mirror-image directed cycles, and
// the two are always distinct (a directed cycle containing both states of
// one edge would force an edge to be paired with itself).
//
// Each iteration 3-colors the current rings with Cole-Vishkin (O(log* n)
// rounds, package ccalgo), derives a maximal matching, marks the higher-id
// endpoint of every matched pair (so at most half the states survive and at
// most 3 consecutive states are unmarked), and contracts unmarked runs by
// relaying probes over at most 4 hops of batched Lenzen routing. After
// O(log n) iterations every ring is a single state — the leader, which
// knows the accumulated traversal cost of its directed cycle. Orientation
// decisions flow back down the contraction tree, and a final per-edge
// exchange between the two mirror states resolves, for every edge
// consistently, which of the two directed cycles' traversal directions to
// adopt.
//
// # Costs
//
// The optional per-edge signed cost steers the choice between the two
// traversal directions: orienting edge e as U->V contributes +dirCost[e],
// as V->U contributes -dirCost[e], and the chosen orientation makes every
// cycle's total contribution non-positive. This is exactly the guarantee
// Cohen's flow rounding (Lemma 4.2) needs; passing nil costs yields a plain
// Eulerian orientation.
package euler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lapcc/internal/cc"
	"lapcc/internal/ccalgo"
	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// ErrNotEulerian reports a vertex of odd degree.
var ErrNotEulerian = errors.New("euler: graph has a vertex of odd degree")

// maxProbeHops bounds the relay length during deterministic contraction:
// runs of unmarked states have length at most 3, so a probe reaches the
// next marked state in at most 4 hops.
const maxProbeHops = 4

// Mode selects the marking strategy of step 2a.
type Mode int

// Marking modes.
const (
	// Deterministic marks via Cole-Vishkin maximal matching: O(log* n)
	// rounds per iteration, unmarked runs of length at most 3 (the
	// Theorem 1.4 algorithm).
	Deterministic Mode = iota + 1
	// Randomized marks each state independently with probability 1/2 (the
	// paper's remark after Theorem 1.4): no coloring rounds, but unmarked
	// runs are only O(log n) with high probability, so probes relay
	// further; probes that exceed the cap simply leave their ring segment
	// uncontracted for one iteration.
	Randomized
)

// Options configures Orient.
type Options struct {
	// Mode defaults to Deterministic.
	Mode Mode
	// Seed drives the Randomized mode's marking.
	Seed int64
	// Env is the run environment. Faults routes every network primitive —
	// probes, replies, expansion, mirror exchange, and the Cole-Vishkin
	// exchanges inside the ring matching — through the reliable
	// retransmission layer, and Transport carries them; the orientation is
	// bit-identical either way. Budget is checked at every contraction
	// iteration; Metrics receives orientations, contraction iterations and
	// dead probes. Workers is ignored: there is no numerical core.
	runenv.Env
	// Ledger, if non-nil, records the round costs of the run.
	Ledger *rounds.Ledger
}

// Stats reports the execution of one orientation.
type Stats struct {
	// Stats carries the shared round accounting of the call.
	rounds.Stats
	// Iterations is the number of contraction iterations (O(log n)).
	Iterations int
	// States is the number of directed states (2m).
	States int
	// DeadProbes counts randomized-mode probes that exceeded the hop cap
	// (their ring segments retried in a later iteration).
	DeadProbes int
}

// Orient computes an Eulerian orientation of g with the Theorem 1.4
// algorithm (deterministic unless opts.Mode says otherwise). The returned
// slice has one entry per edge: true means the edge is oriented from
// Edge.U to Edge.V. dirCost, if non-nil, must have one signed cost per
// edge (see the package comment); every implicit cycle's chosen direction
// then has non-positive total cost. Rounds are recorded in opts.Ledger
// (which may be nil).
func Orient(g *graph.Graph, dirCost []int64, opts Options) ([]bool, Stats, error) {
	opts.Metrics.MirrorLedger(opts.Ledger)
	snap := rounds.Snap(opts.Ledger)
	spansBefore := opts.Trace.SpanCount()
	orient, stats, err := orientImpl(g, dirCost, opts)
	stats.Stats = snap.Stats()
	stats.Spans = opts.Trace.SpanCount() - spansBefore
	if reg := opts.Metrics; reg != nil && err == nil {
		reg.Counter("lapcc_euler_orientations_total", "Eulerian orientations computed.").Inc()
		reg.Counter("lapcc_euler_iterations_total", "Ring-contraction iterations.").Add(int64(stats.Iterations))
		reg.Counter("lapcc_euler_dead_probes_total", "Randomized-mode probes past the hop cap.").Add(int64(stats.DeadProbes))
	}
	return orient, stats, err
}

func orientImpl(g *graph.Graph, dirCost []int64, opts Options) ([]bool, Stats, error) {
	if !g.IsEulerian() {
		return nil, Stats{}, ErrNotEulerian
	}
	if dirCost != nil && len(dirCost) != g.M() {
		return nil, Stats{}, fmt.Errorf("euler: %d costs for %d edges", len(dirCost), g.M())
	}
	m := g.M()
	if m == 0 {
		return nil, Stats{}, nil
	}
	n := g.N()
	if opts.Mode == 0 {
		opts.Mode = Deterministic
	}
	led, tr := opts.Ledger, opts.Trace
	tr.Attach(led)
	sp := tr.Start("euler-orient")
	defer sp.End()
	s := newStateSet(g, dirCost, opts)

	// Contraction loop: reduce every ring to a single leader state. The
	// randomized mode gets a larger iteration allowance: markings can
	// occasionally fail to shrink a ring (no marks, or a dead probe).
	maxIter := 2*int(math.Ceil(math.Log2(float64(2*m+2)))) + 4
	if opts.Mode == Randomized {
		maxIter = 8*int(math.Ceil(math.Log2(float64(2*m+2)))) + 40
	}
	opts.Budget.BindIfUnbound(led)
	iter := 0
	for s.anyProperRing() {
		if err := opts.Budget.Check(fmt.Sprintf("euler-contract-%d", iter)); err != nil {
			return nil, Stats{}, fmt.Errorf("euler: %w", err)
		}
		if iter >= maxIter {
			return nil, Stats{}, fmt.Errorf("euler: contraction did not finish in %d iterations", maxIter)
		}
		isp := tr.Startf("contract-%d", iter)
		err := s.contractOnce(n, led, iter)
		isp.End()
		if err != nil {
			return nil, Stats{}, err
		}
		iter++
	}

	// Leaders decide; decisions flow back down the contraction tree.
	s.decideAtLeaders()
	esp := tr.Start("expand")
	err := s.expand(n, led)
	esp.End()
	if err != nil {
		return nil, Stats{}, err
	}

	msp := tr.Start("mirror")
	orient, err := s.resolveOrientations(n, led)
	msp.End()
	if err != nil {
		return nil, Stats{}, err
	}
	return orient, Stats{Iterations: iter, States: 2 * m, DeadProbes: s.deadProbes}, nil
}

// stateSet is the driver-side bookkeeping for the 2m directed states.
type stateSet struct {
	g     *graph.Graph
	owner []int
	succ  []int
	pred  []int
	alive []bool
	cost  []int64 // cost of the virtual edge state -> succ(state)

	// Orientation decision, filled during the expansion phase.
	leaderID []int64
	want     []bool
	known    []bool

	mode       Mode
	rng        *rand.Rand
	deadProbes int
	env        runenv.Env

	// expansion[k] holds the contraction records of iteration k.
	expansion [][]contractionRecord
}

// contractionRecord remembers one contracted run: informer stayed alive and
// must later forward the cycle decision to the removed chain members.
type contractionRecord struct {
	informer int
	members  []chainEntry
}

type chainEntry struct {
	state int
	owner int
}

func newStateSet(g *graph.Graph, dirCost []int64, opts Options) *stateSet {
	m := g.M()
	s := &stateSet{
		mode:     opts.Mode,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		env:      opts.Env,
		g:        g,
		owner:    make([]int, 2*m),
		succ:     make([]int, 2*m),
		pred:     make([]int, 2*m),
		alive:    make([]bool, 2*m),
		cost:     make([]int64, 2*m),
		leaderID: make([]int64, 2*m),
		want:     make([]bool, 2*m),
		known:    make([]bool, 2*m),
	}
	// Pair incident edges at every vertex by adjacency position: this is the
	// internal, zero-round step 1 of Theorem 1.4.
	partner := make([]map[int]int, g.N())
	for v := 0; v < g.N(); v++ {
		adj := g.Adj(v)
		partner[v] = make(map[int]int, len(adj))
		for k := 0; k+1 < len(adj); k += 2 {
			a, b := adj[k].Edge, adj[k+1].Edge
			partner[v][a] = b
			partner[v][b] = a
		}
	}
	stateOf := func(edge, enteredVertex int) int {
		if g.Edge(edge).V == enteredVertex {
			return 2*edge + 1
		}
		return 2 * edge
	}
	for st := 0; st < 2*m; st++ {
		e := st / 2
		var v int // the vertex this state enters
		if st%2 == 1 {
			v = g.Edge(e).V
		} else {
			v = g.Edge(e).U
		}
		s.owner[st] = v
		s.alive[st] = true
		exit := partner[v][e]
		w := g.Edge(exit).U
		if w == v {
			w = g.Edge(exit).V
		}
		s.succ[st] = stateOf(exit, w)
		// Hop cost: traversing edge `exit` from v to w.
		if dirCost != nil {
			if v == g.Edge(exit).U {
				s.cost[st] = dirCost[exit]
			} else {
				s.cost[st] = -dirCost[exit]
			}
		}
	}
	for st := range s.succ {
		s.pred[s.succ[st]] = st
	}
	return s
}

func (s *stateSet) anyProperRing() bool {
	for st, a := range s.alive {
		if a && s.succ[st] != st {
			return true
		}
	}
	return false
}

// contractOnce performs one marking + contraction iteration.
func (s *stateSet) contractOnce(n int, led *rounds.Ledger, level int) error {
	marked := make([]bool, len(s.alive))
	switch s.mode {
	case Randomized:
		// Paper remark after Theorem 1.4: sample each state with constant
		// probability — no symmetry-breaking rounds at all.
		for st, a := range s.alive {
			if a && s.succ[st] != st && s.rng.Intn(2) == 1 {
				marked[st] = true
			}
		}
	default:
		rings := &ccalgo.Rings{CliqueN: n, Owner: s.owner, Succ: s.succ, Pred: s.pred, Alive: s.alive, Env: s.env}
		matchSucc, err := rings.MaximalMatching(led)
		if err != nil {
			return fmt.Errorf("euler: iteration %d: %w", level, err)
		}
		for st, m := range matchSucc {
			if !m {
				continue
			}
			hi := st
			if s.succ[st] > hi {
				hi = s.succ[st]
			}
			marked[hi] = true
		}
	}
	// Self-rings stay as they are; their (sole) state counts as marked so
	// probes from other rings can never involve them.
	for st, a := range s.alive {
		if a && s.succ[st] == st {
			marked[st] = true
		}
	}

	// Probe relay: each marked state on a proper ring launches a probe along
	// succ pointers; unmarked states forward it, appending themselves; the
	// next marked state terminates it and replies to the originator.
	//
	// Probe payload layout:
	//   [0] recipient state (resolved by the receiving clique node)
	//   [1] originator state, [2] originator owner
	//   [3] accumulated cost
	//   [4] chain length L, followed by L (state, owner) pairs
	type probe struct {
		at     int // state currently holding the probe
		origin int
		cost   int64
		chain  []chainEntry
	}
	var probes []probe
	for st, a := range s.alive {
		if a && marked[st] && s.succ[st] != st {
			probes = append(probes, probe{at: st, origin: st, cost: s.cost[st]})
		}
	}
	type arrival struct {
		origin int
		target int
		cost   int64
		chain  []chainEntry
	}
	hopCap := maxProbeHops
	if s.mode == Randomized {
		// Unmarked runs are geometric, so O(log m) hops suffice with high
		// probability; longer runs just retry next iteration.
		hopCap = 2*int(math.Ceil(math.Log2(float64(len(s.alive)+2)))) + 8
	}
	var arrivals []arrival
	for hop := 0; hop < hopCap && len(probes) > 0; hop++ {
		pkts := make([]cc.Packet, 0, len(probes))
		for _, p := range probes {
			next := s.succ[p.at]
			data := []int64{int64(next), int64(p.origin), int64(s.owner[p.origin]), p.cost, int64(len(p.chain))}
			for _, ce := range p.chain {
				data = append(data, int64(ce.state), int64(ce.owner))
			}
			pkts = append(pkts, cc.Packet{Src: s.owner[p.at], Dst: s.owner[next], Data: data})
		}
		delivered, err := s.env.RouteBatched(n, pkts, led, "euler-probe")
		if err != nil {
			return fmt.Errorf("euler: probe relay: %w", err)
		}
		probes = probes[:0]
		for _, inbox := range delivered {
			for _, pk := range inbox {
				target := int(pk.Data[0])
				origin := int(pk.Data[1])
				cost := pk.Data[3]
				l := int(pk.Data[4])
				chain := make([]chainEntry, 0, l)
				for i := 0; i < l; i++ {
					chain = append(chain, chainEntry{state: int(pk.Data[5+2*i]), owner: int(pk.Data[6+2*i])})
				}
				if marked[target] {
					arrivals = append(arrivals, arrival{origin: origin, target: target, cost: cost, chain: chain})
					continue
				}
				chain = append(chain, chainEntry{state: target, owner: s.owner[target]})
				probes = append(probes, probe{at: target, origin: origin, cost: cost + s.cost[target], chain: chain})
			}
		}
	}
	if len(probes) > 0 {
		if s.mode == Randomized {
			// Dropped probes leave their ring segments uncontracted; the
			// next iteration's fresh marking retries them.
			s.deadProbes += len(probes)
		} else {
			return fmt.Errorf("euler: %d probes unresolved after %d hops (unmarked run too long)", len(probes), hopCap)
		}
	}

	// Reply round: terminating states answer the originators. (A single
	// routed message per probe; the contraction data it carries is what the
	// originator needs to rewire its ring pointer.)
	replyPkts := make([]cc.Packet, 0, len(arrivals))
	for _, a := range arrivals {
		data := []int64{int64(a.origin), int64(a.target), a.cost, int64(len(a.chain))}
		for _, ce := range a.chain {
			data = append(data, int64(ce.state), int64(ce.owner))
		}
		replyPkts = append(replyPkts, cc.Packet{Src: s.owner[a.target], Dst: s.owner[a.origin], Data: data})
	}
	if _, err := s.env.RouteBatched(n, replyPkts, led, "euler-reply"); err != nil {
		return fmt.Errorf("euler: probe reply: %w", err)
	}

	// Apply the rewiring (each originator acts on its reply).
	var records []contractionRecord
	for _, a := range arrivals {
		s.succ[a.origin] = a.target
		s.pred[a.target] = a.origin
		s.cost[a.origin] = a.cost
		for _, ce := range a.chain {
			s.alive[ce.state] = false
		}
		if len(a.chain) > 0 {
			records = append(records, contractionRecord{informer: a.origin, members: a.chain})
		}
	}
	s.expansion = append(s.expansion, records)
	return nil
}

// decideAtLeaders sets the orientation decision at every leader (self-ring).
func (s *stateSet) decideAtLeaders() {
	for st, a := range s.alive {
		if !a {
			continue
		}
		s.leaderID[st] = int64(st)
		s.want[st] = s.cost[st] <= 0
		s.known[st] = true
	}
}

// expand pushes (leaderID, want) back down the contraction tree, one routed
// batch per contraction level, in reverse order.
func (s *stateSet) expand(n int, led *rounds.Ledger) error {
	for level := len(s.expansion) - 1; level >= 0; level-- {
		var pkts []cc.Packet
		for _, rec := range s.expansion[level] {
			if !s.known[rec.informer] {
				return fmt.Errorf("euler: informer %d lacks decision at level %d", rec.informer, level)
			}
			w := int64(0)
			if s.want[rec.informer] {
				w = 1
			}
			for _, ce := range rec.members {
				pkts = append(pkts, cc.Packet{
					Src:  s.owner[rec.informer],
					Dst:  ce.owner,
					Data: []int64{int64(ce.state), s.leaderID[rec.informer], w},
				})
			}
		}
		delivered, err := s.env.RouteBatched(n, pkts, led, "euler-expand")
		if err != nil {
			return fmt.Errorf("euler: expansion level %d: %w", level, err)
		}
		for _, inbox := range delivered {
			for _, pk := range inbox {
				st := int(pk.Data[0])
				s.leaderID[st] = pk.Data[1]
				s.want[st] = pk.Data[2] == 1
				s.known[st] = true
			}
		}
	}
	return nil
}

// resolveOrientations performs the final mirror exchange: for each edge the
// two directed states swap (leaderID, want) and both endpoints apply the
// same deterministic rule, yielding a consistent orientation per cycle.
func (s *stateSet) resolveOrientations(n int, led *rounds.Ledger) ([]bool, error) {
	m := s.g.M()
	pkts := make([]cc.Packet, 0, 2*m)
	for st := 0; st < 2*m; st++ {
		if !s.known[st] {
			return nil, fmt.Errorf("euler: state %d never received a decision", st)
		}
		mirror := st ^ 1
		w := int64(0)
		if s.want[st] {
			w = 1
		}
		pkts = append(pkts, cc.Packet{
			Src:  s.owner[st],
			Dst:  s.owner[mirror],
			Data: []int64{int64(mirror), s.leaderID[st], w},
		})
	}
	if _, err := s.env.RouteBatched(n, pkts, led, "euler-mirror"); err != nil {
		return nil, fmt.Errorf("euler: mirror exchange: %w", err)
	}
	// Both endpoints now hold both tuples; the driver computes the shared
	// deterministic rule once per edge.
	orient := make([]bool, m)
	for e := 0; e < m; e++ {
		l0, w0 := s.leaderID[2*e], s.want[2*e]     // direction V -> U
		l1, w1 := s.leaderID[2*e+1], s.want[2*e+1] // direction U -> V
		var winnerIsForward bool
		switch {
		case w1 && !w0:
			winnerIsForward = true
		case w0 && !w1:
			winnerIsForward = false
		default:
			winnerIsForward = l1 > l0
		}
		orient[e] = winnerIsForward
	}
	return orient, nil
}

// CheckOrientation verifies that orient is an Eulerian orientation of g:
// every vertex has equal in- and out-degree. It returns the first violating
// vertex, or -1.
func CheckOrientation(g *graph.Graph, orient []bool) int {
	balance := make([]int, g.N())
	for i, e := range g.Edges() {
		if orient[i] {
			balance[e.U]++
			balance[e.V]--
		} else {
			balance[e.U]--
			balance[e.V]++
		}
	}
	for v, b := range balance {
		if b != 0 {
			return v
		}
	}
	return -1
}
