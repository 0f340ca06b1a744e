package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shmd/internal/replay"
	"shmd/internal/trace"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// startWireServer serves srv's SHMDWIRE listener on a loopback port.
// The returned stop drains the listener; the pool stays open (the
// caller closes srv as usual).
func startWireServer(t testing.TB, srv *Server) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeWire(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeWire: %v", err)
		}
	}
}

// wireDetectRequest is detectBody's binary twin: the same program IDs
// over the same windows.
func wireDetectRequest(traces ...[]trace.WindowCounts) wire.DetectRequest {
	var req wire.DetectRequest
	for i, tr := range traces {
		req.Programs = append(req.Programs, wire.DetectProgram{
			ID:      fmt.Sprintf("prog-%d", i),
			Windows: tr,
		})
	}
	return req
}

// wireDial opens a raw protocol connection (preamble exchanged, HELLO
// consumed) for tests that speak frames directly.
func wireDial(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	c, err := wire.Dial(addr, 5*time.Second, wire.DefaultMaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatalf("reading HELLO: %v", err)
	}
	if f.Type != wire.FrameHello {
		t.Fatalf("first frame = %v, want HELLO", f.Type)
	}
	return c
}

// TestWireCrossTransportBitIdentical is the transport conformance
// pin: the same seeded detect program served over HTTP/JSON and over
// SHMDWIRE produces bit-identical verdicts, scores, and confidences —
// in batches of one and of up to 16 lanes. Two fresh servers
// share a pool seed; each transport consumes its server's fault
// streams in the same order, so any divergence is a transport bug.
func TestWireCrossTransportBitIdentical(t *testing.T) {
	for _, maxBatch := range []int{0, 16} {
		t.Run(fmt.Sprintf("maxBatch=%d", maxBatch), func(t *testing.T) {
			cfg := Config{
				Pool:     PoolConfig{Size: 1, Seed: 11, ErrorRate: 0.1},
				MaxBatch: maxBatch,
			}
			httpSrv := newTestServer(t, cfg)
			defer httpSrv.Close()
			ts := httptest.NewServer(httpSrv.Handler())
			defer ts.Close()

			wireSrv := newTestServer(t, cfg)
			defer wireSrv.Close()
			addr, stop := startWireServer(t, wireSrv)
			defer stop()
			cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			for i := 0; i < 4; i++ {
				traces := [][]trace.WindowCounts{
					testWindows(t, trace.Trojan, i, 8),
					testWindows(t, trace.Benign, i, 8),
				}
				resp, raw := postDetect(t, ts, detectBody(t, traces[0], traces[1]))
				if resp.StatusCode != 200 {
					t.Fatalf("request %d: HTTP status %d: %s", i, resp.StatusCode, raw)
				}
				var httpResp DetectResponse
				if err := json.Unmarshal(raw, &httpResp); err != nil {
					t.Fatal(err)
				}
				v, err := cl.Detect(context.Background(), wireDetectRequest(traces...))
				if err != nil {
					t.Fatalf("request %d: wire detect: %v", i, err)
				}
				if len(v.Results) != len(httpResp.Results) {
					t.Fatalf("request %d: %d wire results, %d HTTP", i, len(v.Results), len(httpResp.Results))
				}
				for j, wr := range v.Results {
					hr := httpResp.Results[j]
					if wr.ID != hr.ID || wr.Malware != hr.Malware || wr.Unprotected != hr.Unprotected {
						t.Errorf("request %d result %d: wire %+v vs HTTP %+v", i, j, wr, hr)
					}
					if math.Float64bits(wr.Score) != math.Float64bits(hr.Score) {
						t.Errorf("request %d result %d: score %v != %v", i, j, wr.Score, hr.Score)
					}
					if math.Float64bits(wr.Confidence) != math.Float64bits(hr.Confidence) {
						t.Errorf("request %d result %d: confidence %v != %v", i, j, wr.Confidence, hr.Confidence)
					}
					if int(wr.Attempts) != hr.Attempts || int(wr.Windows) != hr.Windows {
						t.Errorf("request %d result %d: attempts/windows %d/%d != %d/%d",
							i, j, wr.Attempts, wr.Windows, hr.Attempts, hr.Windows)
					}
				}
			}
		})
	}
}

// TestServeWireTraceReplaysBitIdentically extends the replay contract
// to the wire transport: every decision served over SHMDWIRE with a
// trace sink attached replays off-hardware to the recorded verdict.
func TestServeWireTraceReplaysBitIdentically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.trace")
	sink, err := replay.OpenSink(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Trace: sink})
	addr, stop := startWireServer(t, srv)
	cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	scored := 0
	for i := 0; i < 4; i++ {
		req := wireDetectRequest(
			testWindows(t, trace.Trojan, i, 8),
			testWindows(t, trace.Benign, i, 8))
		v, err := cl.Detect(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		scored += len(v.Results)
	}
	cl.Close()
	stop()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Written()+sink.Dropped() < uint64(scored) {
		t.Fatalf("sink accounted %d+%d records, served %d decisions",
			sink.Written(), sink.Dropped(), scored)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := replay.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	base := testHMD(t)
	n := 0
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if err := replay.Verify(base, rec, Confidence); err != nil {
			t.Errorf("record %d (slot %d gen %d): %v", n, rec.Slot, rec.Gen, err)
		}
		n++
	}
	if uint64(n) != sink.Written() {
		t.Fatalf("trace holds %d records, sink wrote %d", n, sink.Written())
	}
}

// TestWireBackpressure mirrors TestBackpressure on the binary path:
// with the only session held and the admission queue full, a DETECT
// sheds with a typed 429 and the queued ones complete after release.
func TestWireBackpressure(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 1}, QueueDepth: 1})
	defer srv.Close()
	addr, stop := startWireServer(t, srv)
	defer stop()

	slot, err := srv.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	req := wireDetectRequest(testWindows(t, trace.Trojan, 0, 2))

	// Fill the admission queue (capacity pool+queue = 2).
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := cl.Detect(context.Background(), req)
			results <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.queue) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued detects never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next DETECT must shed with a typed 429.
	_, err = cl.Detect(context.Background(), req)
	var ef *wire.ErrorFrame
	if !errors.As(err, &ef) || ef.Code != wire.CodeOverloaded {
		t.Fatalf("overload error = %v, want typed %d", err, wire.CodeOverloaded)
	}

	srv.Pool().Release(slot)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued detect: %v", err)
		}
	}
	if srv.Metrics().QueueRejects.Value() == 0 {
		t.Error("queue reject not counted")
	}
}

// TestWireVersionSkew pins the handshake contract: an unsupported
// client version gets a typed 505 ERROR, not a silent hangup.
func TestWireVersionSkew(t *testing.T) {
	srv := newTestServer(t, Config{})
	defer srv.Close()
	addr, stop := startWireServer(t, srv)
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(wire.AppendPreamble(nil, 99)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadPreamble(nc); err != nil {
		t.Fatalf("server preamble: %v", err)
	}
	f, err := wire.NewConn(nc, 0).ReadFrame()
	if err != nil {
		t.Fatalf("reading skew reply: %v", err)
	}
	if f.Type != wire.FrameError {
		t.Fatalf("skew reply = %v, want ERROR", f.Type)
	}
	e, err := wire.DecodeErrorFrame(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeVersion {
		t.Fatalf("skew code = %d, want %d", e.Code, wire.CodeVersion)
	}
}

// TestWireUnknownFrameSkipped pins forward compatibility: a valid
// frame of an unknown type is skipped with a warning — the connection
// keeps serving and the skip is counted.
func TestWireUnknownFrameSkipped(t *testing.T) {
	srv := newTestServer(t, Config{})
	defer srv.Close()
	addr, stop := startWireServer(t, srv)
	defer stop()

	c := wireDial(t, addr)
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameType(0x7F), Corr: 9, Payload: []byte("future")}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FramePing, Corr: 10}); err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatalf("connection died after unknown frame: %v", err)
	}
	if f.Type != wire.FramePong || f.Corr != 10 {
		t.Fatalf("got %v corr %d, want PONG corr 10", f.Type, f.Corr)
	}
	if got := srv.Metrics().WireUnknownFrames.Value(); got != 1 {
		t.Errorf("unknown-frame counter = %d, want 1", got)
	}
}

// TestWireOversizedFrameRecoverable pins the 413 path: a frame beyond
// the payload limit earns a typed error and the stream stays usable.
func TestWireOversizedFrameRecoverable(t *testing.T) {
	srv := newTestServer(t, Config{Limits: Limits{MaxBodyBytes: 1024}})
	defer srv.Close()
	addr, stop := startWireServer(t, srv)
	defer stop()

	c := wireDial(t, addr)
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameDetect, Corr: 7, Payload: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatalf("connection died after oversized frame: %v", err)
	}
	if f.Type != wire.FrameError || f.Corr != 7 {
		t.Fatalf("got %v corr %d, want ERROR corr 7", f.Type, f.Corr)
	}
	e, err := wire.DecodeErrorFrame(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeTooLarge {
		t.Fatalf("code = %d, want %d", e.Code, wire.CodeTooLarge)
	}
	// Still synchronized: a PING round-trips.
	if err := c.WriteFrame(wire.Frame{Type: wire.FramePing, Corr: 8}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.Type != wire.FramePong {
		t.Fatalf("post-413 ping: frame %v err %v", f.Type, err)
	}
}

// TestWireDrainSendsGoAway pins graceful drain: cancelling ServeWire
// broadcasts GOAWAY, lets an in-flight detect finish, and closes.
func TestWireDrainSendsGoAway(t *testing.T) {
	srv := newTestServer(t, Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeWire(ctx, ln) }()

	c := wireDial(t, ln.Addr().String())
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	sawGoAway := false
	for !sawGoAway {
		if time.Now().After(deadline) {
			t.Fatal("no GOAWAY before the drain closed the connection")
		}
		f, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("connection closed without GOAWAY: %v", err)
		}
		sawGoAway = f.Type == wire.FrameGoAway
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if srv.Metrics().WireGoAways.Value() == 0 {
		t.Error("GOAWAY not counted")
	}
}

// TestWireHealth pins the HEALTH_REQ round-trip: the same JSON body
// /healthz serves, carried in a HEALTH frame.
func TestWireHealth(t *testing.T) {
	srv := newTestServer(t, Config{})
	defer srv.Close()
	addr, stop := startWireServer(t, srv)
	defer stop()

	cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	raw, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var report HealthReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("health payload not a report: %v", err)
	}
	if report.Status != "ok" {
		t.Errorf("health status = %q, want ok", report.Status)
	}
	if len(report.Sessions) != 2 {
		t.Errorf("health sessions = %d, want 2", len(report.Sessions))
	}
}
