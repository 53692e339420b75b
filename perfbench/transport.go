package main

import (
	"fmt"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// The transport probe measures the layer a multi-process clique adds: a
// 2-process transport/tcp mesh of lapccnode workers carrying the clique op
// cycle (three Eulerian orientations and one Laplacian solve per instance)
// through a Deliver-timing decorator, then the same cycle over the
// in-process wire codec (transport.Mem). It runs in every traced run; no
// timed workload crosses sockets (see README.md, "clique-tcp").

const (
	tcpN         = 128
	tcpDegree    = 4
	tcpProcs     = 2
	tcpInstances = 3
	tcpBoots     = 3 // mesh boots per probe; transport.boot_s is their median
	tcpEps       = 1e-8
	cliqueCycle  = 4 // ops per instance: three orientations and one solve
)

// transportProbe is the probe's record.
type transportProbe struct {
	bootS, deliverUs, frames, frameBytes, retransmitsPerOp, codecUs float64
}

// cliqueInstances draws the probe's RandomRegular(128, 4) instances, with
// weights in [1, 2) and a pole-pair right-hand side each, from seed.
func cliqueInstances(seed int64) ([]*graph.Graph, []linalg.Vec, error) {
	var graphs []*graph.Graph
	var rhs []linalg.Vec
	for k := 0; k < tcpInstances; k++ {
		rng := rngFor(seed, 3_000_000+int64(k))
		g, err := graph.RandomRegular(tcpN, tcpDegree, rng.Int63())
		if err != nil {
			return nil, nil, err
		}
		graphs = append(graphs, withWeights(g, func(int) float64 { return 1 + rng.Float64() }))
		rhs = append(rhs, poles(rng, tcpN))
	}
	return graphs, rhs, nil
}

// cliqueOp runs and verifies op i of the clique cycle over tr: orientations
// on the first three ops of each instance, a Laplacian solve on the fourth.
func cliqueOp(graphs []*graph.Graph, rhs []linalg.Vec, i int, tr cc.Transport) error {
	k := (i / cliqueCycle) % len(graphs)
	g, b := graphs[k], rhs[k]
	ro := core.RunOptions{Transport: tr}
	if i%cliqueCycle != cliqueCycle-1 {
		resp, err := core.Do(core.Request{Op: core.OpOrient, Graph: g, Run: ro})
		if err != nil {
			return err
		}
		return checkOrient(g, resp.Eulerian.Orient)
	}
	resp, err := core.Do(core.Request{Op: core.OpSolve, Graph: g, Args: core.Args{B: b, Eps: tcpEps}, Run: ro})
	if err != nil {
		return err
	}
	return checkSolve(g, b, resp.Laplacian.X, tcpEps)
}

// runCliqueCycle runs and verifies one pass of the clique cycle over tr.
func runCliqueCycle(graphs []*graph.Graph, rhs []linalg.Vec, tr cc.Transport) error {
	for i := 0; i < cliqueCycle*len(graphs); i++ {
		if err := cliqueOp(graphs, rhs, i, tr); err != nil {
			return fmt.Errorf("clique op %d: %w", i, err)
		}
	}
	return nil
}

// probeTransport boots the mesh tcpBoots times (keeping the last), runs the
// clique cycle over it and then over transport.Mem. An empty nodeBin runs
// the workers as goroutines of this process over the same loopback
// sockets (tcp.Options.Binary).
func probeTransport(seed int64, nodeBin string) (transportProbe, error) {
	var tp transportProbe
	graphs, rhs, err := cliqueInstances(seed)
	if err != nil {
		return tp, err
	}
	var boots []float64
	var mesh *tcp.Transport
	for r := 0; r < tcpBoots; r++ {
		if mesh != nil {
			if err := mesh.Close(); err != nil {
				return tp, fmt.Errorf("mesh close: %w", err)
			}
		}
		t0 := time.Now()
		if mesh, err = tcp.New(tcp.Options{Procs: tcpProcs, Binary: nodeBin}); err != nil {
			return tp, fmt.Errorf("mesh boot: %w", err)
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	tp.bootS = median(boots)
	wire := &timedTransport{inner: mesh}
	err = runCliqueCycle(graphs, rhs, wire)
	if cerr := mesh.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("mesh close: %w", cerr)
	}
	if err != nil {
		return tp, err
	}
	ops := float64(cliqueCycle * len(graphs))
	tp.deliverUs = wire.usPerRound()
	tp.frames = ratio(float64(wire.stats.Frames), float64(wire.rounds))
	tp.frameBytes = ratio(float64(wire.stats.FrameBytes), float64(wire.rounds))
	tp.retransmitsPerOp = float64(wire.stats.Retransmits) / ops

	codec := &timedTransport{inner: transport.NewMem()}
	if err := runCliqueCycle(graphs, rhs, codec); err != nil {
		return tp, err
	}
	tp.codecUs = codec.usPerRound()
	return tp, nil
}
