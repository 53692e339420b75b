package benchgate

import (
	"runtime"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/transport"
)

// TestNetTranscriptRaceFree runs the net measurement on two cores, where
// the engine steps nodes concurrently: the transcript checksum must be the
// one a single core computes, on every backend and every repetition. Under
// go test -race a checksum accumulator shared between node steps also
// fails as a data race.
func TestNetTranscriptRaceFree(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	_, want, err := measureNet(nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(2)
	for rep := 0; rep < 3; rep++ {
		for _, tr := range []cc.Transport{nil, transport.NewMem()} {
			_, got, err := measureNet(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("rep %d transport %T: checksum %x at GOMAXPROCS=2, want the one-core %x", rep, tr, got, want)
			}
		}
	}
	if _, err := MeasureNetWorkload(); err != nil {
		t.Fatal(err)
	}
}
