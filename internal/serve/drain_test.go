package serve

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"shmd/internal/trace"
	"shmd/pkg/sdk"
)

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeListenerClosedWaitsForRunners pins Serve's stop when its
// listener is closed from outside: the same ordered stop as a
// cancelled context. A runner whose client already gave up still holds
// the only slot in its retry backoff; Serve must not roll the pool to
// nominal under it, and returns the listener's error only after the
// runner released the slot.
func TestServeListenerClosedWaitsForRunners(t *testing.T) {
	sleep, stalled, resume := stallGates(t, 1)
	srv, slots := chaosBatchServer(t, 1, 0, 0, sleep)
	faultNext(t, slots[0])
	srv.Pool().Release(slots[0])

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	defer cancelReq()
	body := detectBody(t, testWindows(t, trace.Trojan, 0, 4))
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, "http://"+ln.Addr().String()+"/v1/detect", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	awaitStall(t, stalled[0])
	// The client gives up: its handler returns, and the runner stays
	// detached in its backoff with the slot.
	cancelReq()
	<-reqDone
	waitUntil(t, "the abandoned handler to return", func() bool { return len(srv.queue) == 0 })

	ln.Close()
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned (%v) while a runner still held a slot", err)
	case <-time.After(50 * time.Millisecond):
	}
	resume[0]()
	select {
	case err := <-serveDone:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v, want the closed listener's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the runner finished")
	}
	if n := len(srv.pool.slots); n != 1 {
		t.Errorf("%d of 1 slots parked after Serve returned", n)
	}
	for _, slot := range srv.Pool().Slots() {
		if !slot.Sup.Session().AtNominal() {
			t.Errorf("slot %d not at nominal voltage after Serve returned", slot.ID)
		}
	}
	if got := srv.Pool().DoubleCheckouts(); got != 0 {
		t.Errorf("double checkouts = %d", got)
	}
}

// TestDrainRefusesRunnersOnceWaiting ends the wire and HTTP contexts
// together while a wire DETECT is dispatching (admitted, waiting for a
// slot) behind a runner that holds the other slot. The HTTP drain,
// which closes the pool, refuses runners first; from then on the
// dispatching DETECT must not start a runner (it would run on a pool
// rolled to nominal under it): it is refused, the running detection
// finishes and answers, and both listeners return.
func TestDrainRefusesRunnersOnceWaiting(t *testing.T) {
	sleep, stalled, resume := stallGates(t, 1)
	srv, slots := chaosBatchServer(t, 2, 0, 0, sleep)
	faultNext(t, slots[0])
	srv.Pool().Release(slots[0])
	defer srv.Pool().Release(slots[1])

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpDone := make(chan error, 1)
	wireDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(ctx, httpLn) }()
	go func() { wireDone <- srv.ServeWire(ctx, wireLn) }()

	cl, err := sdk.Dial(wireLn.Addr().String(), sdk.Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	req := wireDetectRequest(testWindows(t, trace.Trojan, 0, 4))
	detect := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := cl.Detect(context.Background(), req)
			done <- err
		}()
		return done
	}
	running := detect()
	awaitStall(t, stalled[0])
	dispatching := detect()
	waitUntil(t, "the second DETECT to be admitted", func() bool { return len(srv.queue) == 2 })

	cancel()
	waitUntil(t, "the drain to refuse runners", func() bool {
		srv.runMu.Lock()
		defer srv.runMu.Unlock()
		return srv.runnersClosed
	})
	resume[0]()

	if err := <-running; err != nil {
		t.Errorf("the detection running when the drain began failed: %v", err)
	}
	if err := <-dispatching; err == nil {
		t.Error("a DETECT started a runner after the drain began waiting for runners")
	}
	for name, done := range map[string]chan error{"Serve": httpDone, "ServeWire": wireDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s returned %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return", name)
		}
	}
	if got := srv.Pool().DoubleCheckouts(); got != 0 {
		t.Errorf("double checkouts = %d", got)
	}
}

// TestDispatchRefusedOnceDrainWaits pins both dispatchers once the
// drain that closes the pool refuses runners: a request fails at once with
// errDraining instead of starting a runner or a flusher, its slot goes
// back, and no lane is left pending.
func TestDispatchRefusedOnceDrainWaits(t *testing.T) {
	for _, maxBatch := range []int{0, 8} {
		srv := newTestServer(t, Config{MaxBatch: maxBatch, MaxBatchWait: time.Millisecond})
		srv.closeRunners()
		var err error
		if srv.batcher != nil {
			_, err = srv.batcher.dispatch(boundedCtx(t), "", programs(t, "a", 3))
			srv.batcher.mu.Lock()
			if n, w := len(srv.batcher.pending), srv.batcher.waiting; n != 0 || w != 0 {
				t.Errorf("MaxBatch %d: %d lanes pending, %d flushers waiting after the refusal", maxBatch, n, w)
			}
			srv.batcher.mu.Unlock()
		} else {
			_, err = srv.dispatch(boundedCtx(t), 0, "", programs(t, "a", 3))
		}
		if !errors.Is(err, errDraining) || !errors.Is(err, ErrPoolClosed) {
			t.Errorf("MaxBatch %d: dispatch during a drain = %v, want errDraining", maxBatch, err)
		}
		if n := len(srv.pool.slots); n != srv.Pool().Size() {
			t.Errorf("MaxBatch %d: %d of %d slots parked after the refusal", maxBatch, n, srv.Pool().Size())
		}
		srv.Close()
	}
}

// TestWireDrainLeavesHTTPServing pins the order shmd serve -wire shuts
// down in: the wire context ends first, and the HTTP one only once
// ServeWire has returned. The wire drain must not refuse runners, so an
// HTTP request already admitted and waiting for a slot is still served
// (200), and the HTTP drain then closes the pool.
func TestWireDrainLeavesHTTPServing(t *testing.T) {
	srv, slots := chaosBatchServer(t, 1, 0, 0, func(time.Duration) {})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireCtx, cancelWire := context.WithCancel(context.Background())
	defer cancelWire()
	httpCtx, cancelHTTP := context.WithCancel(context.Background())
	defer cancelHTTP()
	httpDone := make(chan error, 1)
	wireDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(httpCtx, httpLn) }()
	go func() { wireDone <- srv.ServeWire(wireCtx, wireLn) }()

	body := detectBody(t, testWindows(t, trace.Trojan, 0, 4))
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+httpLn.Addr().String()+"/v1/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitUntil(t, "the HTTP request to be admitted", func() bool { return len(srv.queue) == 1 })

	cancelWire()
	select {
	case err := <-wireDone:
		if err != nil {
			t.Errorf("ServeWire returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeWire did not return")
	}
	// The slot frees only after the wire drain ended: the waiting
	// request starts its runner now.
	srv.Pool().Release(slots[0])
	select {
	case code := <-status:
		if code != http.StatusOK {
			t.Errorf("HTTP request admitted before the wire drain answered %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the HTTP request was not answered")
	}

	cancelHTTP()
	select {
	case err := <-httpDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
	}
	for _, slot := range srv.Pool().Slots() {
		if !slot.Sup.Session().AtNominal() {
			t.Errorf("slot %d not at nominal voltage after Serve returned", slot.ID)
		}
	}
}
