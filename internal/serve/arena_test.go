package serve

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/core"
	"shmd/internal/replay"
	"shmd/internal/trace"
	"shmd/internal/wire"
)

// The tests in this file pin the lifetime of a SHMDWIRE request's
// pooled window arena. Its handler drops its reference once the reply
// is written; a batch bound to one of its lanes keeps the arena alive
// until the batch's last runner is done, and a recycled arena is
// cleared. A batch that outlives its request's handler must therefore
// still score — and trace — the request's own windows. Run them under
// -race -count=20.

// readTrace returns every record of a closed trace file.
func readTrace(t *testing.T, path string) []replay.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := replay.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var recs []replay.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
}

// checkRecords asserts every record scored one of the sent traces and
// replays bit-identically.
func checkRecords(t *testing.T, recs []replay.Record, sent ...[]trace.WindowCounts) {
	t.Helper()
	base := testHMD(t)
	for i, rec := range recs {
		match := false
		for _, w := range sent {
			match = match || reflect.DeepEqual(rec.Windows, w)
		}
		if !match {
			t.Errorf("record %d (slot %d) scored windows no request sent", i, rec.Slot)
			continue
		}
		if err := replay.Verify(base, rec, Confidence); err != nil {
			t.Errorf("record %d (slot %d): %v", i, rec.Slot, err)
		}
	}
}

// awaitHandlersDone waits until every admitted request has given back
// its queue token: its handler has returned, and with it its arena
// reference.
func awaitHandlersDone(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("request handler never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// arenaServer is a traced, batching server on a chaos pool whose
// first faulted batch stalls in its retry backoff until resumed. Its
// slots are parked in order, so the first batch binds the faulted
// slot 0.
func arenaServer(t *testing.T, size int, hedge time.Duration, path string) (*Server, chan struct{}, func()) {
	sleep, stalled, resume := stallGates(t, 1)
	sink, err := replay.OpenSink(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{
		Pool: PoolConfig{
			Size:        size,
			ChaosConfig: &chaos.Config{Seed: 9},
			Supervisor:  core.SupervisorConfig{Sleep: sleep},
		},
		MaxBatch:   16,
		HedgeAfter: hedge,
		Trace:      sink,
	})
	slots := make([]*Slot, size)
	for i := range slots {
		if slots[i], err = srv.Pool().Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	faultNext(t, slots[0])
	for _, slot := range slots {
		srv.Pool().Release(slot)
	}
	t.Cleanup(func() {
		resume[0]()
		srv.Close()
		sink.Close()
	})
	return srv, stalled[0], resume[0]
}

// sendDetect writes one DETECT frame of the given programs.
func sendDetect(t *testing.T, c *wire.Conn, corr uint64, deadlineMs uint32, traces ...[]trace.WindowCounts) {
	t.Helper()
	req := wireDetectRequest(traces...)
	req.DeadlineMs = deadlineMs
	payload, err := wire.AppendDetectRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameDetect, Corr: corr, Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

// finish drains the wire listener and the server (waiting for every
// runner), closes the trace sink, and returns the trace.
func finish(t *testing.T, srv *Server, stop func(), path string) []replay.Record {
	t.Helper()
	stop()
	if err := srv.Drain(boundedCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := srv.cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if d := srv.cfg.Trace.Dropped(); d != 0 {
		t.Fatalf("trace sink dropped %d records", d)
	}
	return readTrace(t, path)
}

// TestWireArenaOutlivesHedgedLoser: the primary of a hedged batch
// stalls, the hedge wins and its VERDICT goes out, and the request's
// handler finishes — all while the loser has yet to score. The loser
// then scores the request's own windows: both runners' trace records
// carry them and replay bit-identically.
func TestWireArenaOutlivesHedgedLoser(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hedged.trace")
	srv, stalled, resume := arenaServer(t, 2, time.Millisecond, path)
	addr, stop := startWireServer(t, srv)
	c := wireDial(t, addr)

	a, b := testWindows(t, trace.Trojan, 3, 6), testWindows(t, trace.Benign, 4, 5)
	sendDetect(t, c, 1, 0, a, b)
	awaitStall(t, stalled)
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameVerdict {
		t.Fatalf("reply = %v, want VERDICT", f.Type)
	}
	v, err := wire.DecodeVerdict(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Hedged || len(v.Results) != 2 {
		t.Fatalf("verdict hedged=%v with %d results, want a hedged pair", v.Hedged, len(v.Results))
	}
	awaitHandlersDone(t, srv)
	resume()

	recs := finish(t, srv, stop, path)
	if len(recs) != 4 {
		t.Fatalf("trace holds %d records, want 4 (two lanes, winner and loser)", len(recs))
	}
	checkRecords(t, recs, a, b)
	// Both hedge counters count batches: the one hedged batch, won by
	// its hedge.
	m := srv.Metrics()
	if wins, hedges := m.HedgeWins.Value(), m.Hedges.Value(); wins > hedges || wins != 1 {
		t.Errorf("hedge wins %d, hedges %d: want one batch won by its hedge, wins <= hedges", wins, hedges)
	}
}

// TestWireArenaOutlivesExpiredRequest: a request's deadline expires
// while its lanes are bound to a stalled batch; its handler answers
// 503 and finishes. The batch then scores the request's own windows.
func TestWireArenaOutlivesExpiredRequest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "expired.trace")
	srv, stalled, resume := arenaServer(t, 1, 0, path)
	addr, stop := startWireServer(t, srv)
	c := wireDial(t, addr)

	a := testWindows(t, trace.Trojan, 5, 7)
	sendDetect(t, c, 1, 100, a)
	awaitStall(t, stalled)
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError {
		t.Fatalf("reply = %v, want ERROR", f.Type)
	}
	if e, err := wire.DecodeErrorFrame(f.Payload); err != nil || e.Code != wire.CodeUnavailable {
		t.Fatalf("error frame %+v (%v), want 503", e, err)
	}
	awaitHandlersDone(t, srv)
	resume()

	recs := finish(t, srv, stop, path)
	if len(recs) != 1 {
		t.Fatalf("trace holds %d records, want 1", len(recs))
	}
	checkRecords(t, recs, a)
}

// TestWireTraceReplaysAfterArenaReuse: sequential SHMDWIRE requests
// decode into recycled arenas; every traced decision still carries the
// windows it scored and replays bit-identically.
func TestWireTraceReplaysAfterArenaReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reuse.trace")
	sink, err := replay.OpenSink(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Trace: sink, MaxBatch: 4})
	t.Cleanup(func() { srv.Close(); sink.Close() })
	addr, stop := startWireServer(t, srv)
	c := wireDial(t, addr)

	var sent [][]trace.WindowCounts
	for i := 0; i < 6; i++ {
		// Longer requests first, so later ones land in arenas whose
		// tails hold an earlier request's windows.
		a, b := testWindows(t, trace.Trojan, i, 9-i), testWindows(t, trace.Benign, i, 4+i%3)
		sent = append(sent, a, b)
		sendDetect(t, c, uint64(i+1), 0, a, b)
		f, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameVerdict {
			t.Fatalf("request %d: reply %v", i, f.Type)
		}
	}
	recs := finish(t, srv, stop, path)
	if len(recs) != len(sent) {
		t.Fatalf("trace holds %d records, sent %d programs", len(recs), len(sent))
	}
	checkRecords(t, recs, sent...)
}
