package serve_test

import (
	"net/http"
	"sync/atomic"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/serve"
	"lapcc/internal/transport"
)

// countingTransport is a cc.Transport decorator that counts the deliveries
// it carries.
type countingTransport struct {
	inner      cc.Transport
	deliveries atomic.Int64
}

func (c *countingTransport) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	c.deliveries.Add(1)
	return c.inner.Deliver(round, n, out)
}

func (c *countingTransport) Close() error { return c.inner.Close() }

// TestSparsifyUsesDaemonTransport: /v1/sparsify runs over the daemon's
// delivery backend like every other op — on a pool miss and on a traced
// request — and its answer stays bit-identical to a direct facade call.
func TestSparsifyUsesDaemonTransport(t *testing.T) {
	ct := &countingTransport{inner: transport.NewMem()}
	_, ts := startDaemon(t, serve.Options{Transport: ct})
	g := testGraph(t, 0)
	wg := serve.ToWireGraph(g)
	want, err := core.SparsifyWith(g, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantH := serve.ToWireGraph(want.H)

	for _, query := range []string{"", "?trace=1"} {
		before := ct.deliveries.Load()
		var got serve.SparsifyResponse
		if code, werr := postJSON(t, ts.URL+"/v1/sparsify"+query, serve.SparsifyRequest{Graph: &wg}, &got); code != http.StatusOK {
			t.Fatalf("%q: status %d: %+v", query, code, werr)
		}
		if ct.deliveries.Load() == before {
			t.Fatalf("%q: sparsify request delivered nothing through the daemon transport", query)
		}
		if len(got.H.Edges) != len(wantH.Edges) || got.Rounds.Total != want.Rounds.Total {
			t.Fatalf("%q: response differs from direct call: %d edges / %d rounds, want %d / %d",
				query, len(got.H.Edges), got.Rounds.Total, len(wantH.Edges), want.Rounds.Total)
		}
		for i := range wantH.Edges {
			if got.H.Edges[i] != wantH.Edges[i] {
				t.Fatalf("%q: H edge %d: daemon %v != direct %v", query, i, got.H.Edges[i], wantH.Edges[i])
			}
		}
	}
}
