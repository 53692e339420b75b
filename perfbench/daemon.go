package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"lapcc/internal/serve"
)

// daemon is an in-process lapccd: a serve.Server behind a real loopback
// listener, driven by one closed-loop HTTP client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startDaemon serves serve.New(opts) on 127.0.0.1. wrap, if non-nil,
// decorates the daemon's handler (the traced run's timing middleware).
func startDaemon(opts serve.Options, wrap func(http.Handler) http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon: listen: %w", err)
	}
	srv := serve.New(opts)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return d, nil
}

// post sends body to path and decodes a 200 response into out. Any other
// status is an error carrying the daemon's error envelope.
func (d *daemon) post(path string, body []byte, out any) error {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	// Read to EOF before decoding: the response is complete only when the
	// handler has returned, and a drained body keeps the connection reused.
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: read: %w", path, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

// close shuts the daemon down and waits for its serve loop to exit.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves nothing to clean up in-process
	<-d.done
}
