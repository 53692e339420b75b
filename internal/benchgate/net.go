package benchgate

import (
	"fmt"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// NetTolerance gates the net suite. The gated figure is engine ns-per-round
// through each delivery backend. The local figure is a plain function call;
// the mem figure adds an encode/decode of every message; the tcp figure
// stacks loopback sockets, the chunk/ack barrier, and kernel scheduling on
// top, so its wall time swings far more between runs than any
// microbenchmark — hence a ratio even wider than the serve suite's. The
// suite's real teeth are not the timings at all: the measurement
// cross-checks that all three backends produced bit-identical inbox
// transcripts and fails hard on any divergence.
var NetTolerance = Tolerance{Ns: 5.0}

// The net workload: netN nodes, each sending netFan messages to rotating
// recipients every round for netRounds rounds. Sized so a TCP round moves
// several frames per worker pair without making the gate slow.
const (
	netN      = 48
	netFan    = 4
	netRounds = 32
	netProcs  = 4
)

// netWord is one received payload word, tagged with its round and sender.
type netWord struct {
	round, from int
	v           int64
}

// netTranscript holds, per node, every word the node received in arrival
// order. Each node's step appends only to its own slice, so the engine may
// run node steps concurrently; sum folds the words in (round, node) order
// after Run returns.
type netTranscript [][]netWord

// netStep returns the deterministic workload step plus the transcript it
// records into.
func netStep() (cc.Step, netTranscript) {
	tx := make(netTranscript, netN)
	step := func(node, round int, inbox []cc.Message, send func(int, ...int64)) bool {
		for _, m := range inbox {
			for _, v := range m.Data {
				tx[node] = append(tx[node], netWord{round: round, from: m.From, v: v})
			}
		}
		if round >= netRounds {
			return true
		}
		for k := 1; k <= netFan; k++ {
			send((node+1+(k*7+round)%(netN-1))%netN, int64(node), int64(round<<8|k))
		}
		return false
	}
	return step, tx
}

// sum is the order-sensitive transcript checksum, folded round by round and
// within a round node by node — the order a one-worker engine steps the
// nodes in — so it does not depend on how the engine schedules them.
func (tx netTranscript) sum() uint64 {
	var sum uint64
	next := make([]int, len(tx))
	for round, left := 0, true; left; round++ {
		left = false
		for node, words := range tx {
			i := next[node]
			for ; i < len(words) && words[i].round == round; i++ {
				sum = sum*0x100000001b3 ^ uint64(words[i].v) ^ uint64(words[i].from)<<32
			}
			next[node] = i
			left = left || i < len(words)
		}
	}
	return sum
}

// measureNet runs the workload through one transport (nil = in-process
// merge) and returns ns-per-round plus the transcript checksum.
func measureNet(tr cc.Transport) (float64, uint64, error) {
	e := cc.NewEngine(netN)
	if tr != nil {
		e.SetTransport(tr)
	}
	step, tx := netStep()
	start := time.Now()
	rounds, err := e.Run(step, netRounds+8)
	if err != nil {
		return 0, 0, err
	}
	if rounds <= 0 {
		return 0, 0, fmt.Errorf("benchgate: net workload ran %d rounds", rounds)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds), tx.sum(), nil
}

// MeasureNetWorkload re-measures BENCH_net.json in-process: the same engine
// workload through the in-process merge, the Mem wire-codec transport, and
// a netProcs-worker TCP loopback clique (in-process worker mode — real
// sockets and frames, no subprocess spawn cost polluting the figure). The
// three transcripts must be bit-identical or the measurement itself fails.
func MeasureNetWorkload() (map[string]Metrics, error) {
	localNs, localSum, err := measureNet(nil)
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/local: %w", err)
	}

	memNs, memSum, err := measureNet(transport.NewMem())
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/mem: %w", err)
	}

	tt, err := tcp.New(tcp.Options{Procs: netProcs})
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/tcp: %w", err)
	}
	tcpNs, tcpSum, err := measureNet(tt)
	cerr := tt.Close()
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/tcp: %w", err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("benchgate: net/tcp close: %w", cerr)
	}

	if memSum != localSum || tcpSum != localSum {
		return nil, fmt.Errorf("benchgate: transcript checksums diverge: local=%x mem=%x tcp=%x",
			localSum, memSum, tcpSum)
	}
	return map[string]Metrics{
		"Net/local": {NsPerOp: localNs},
		"Net/mem":   {NsPerOp: memNs},
		"Net/tcp":   {NsPerOp: tcpNs},
	}, nil
}
