package sdk_test

// Tests for the SDK's tenant surface: the Dial-time identity riding
// the client HELLO and every payload tag, the typed rate-limit error
// with its machine-readable hint, and the sliding-window stream
// helper.

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shmd/internal/serve"
	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// startTenantWireServer boots a wire server with the given tenancy
// config and a frozen clock (no bucket refill: admission counts are
// exact).
func startTenantWireServer(t *testing.T, specs ...tenant.Spec) string {
	t.Helper()
	at := time.Unix(1700000000, 0)
	srv, err := serve.New(newDetector(t), serve.Config{
		Pool:            serve.PoolConfig{Size: 2, Seed: 1, ErrorRate: 0.1},
		QueueDepth:      64,
		JitterSeed:      1,
		ShutdownTimeout: 5 * time.Second,
		Tenancy: &tenant.Config{
			Tenants: specs,
			Now:     func() time.Time { return at },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeWire(ctx, ln) }()
	var once sync.Once
	t.Cleanup(func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("ServeWire: %v", err)
			}
			srv.Close()
		})
	})
	return ln.Addr().String()
}

// TestClientTenantIdentity pins the SDK tenant contract end to end:
// Options.Tenant tags every detect (verdicts echo it back), and once
// the quota runs dry the client gets *ErrRateLimited carrying the
// server's Retry-After hint — machine-readable because the SDK's
// HELLO opted the connection into v1.1 tails.
func TestClientTenantIdentity(t *testing.T) {
	addr := startTenantWireServer(t, tenant.Spec{ID: "acme", Class: tenant.Realtime, Rate: 1, Burst: 2})
	cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: 1, Tenant: "acme", Class: "realtime"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		v, err := cl.Detect(ctx, detectRequest(t, i))
		if err != nil {
			t.Fatalf("detect %d: %v", i, err)
		}
		if v.Tenant != "acme" {
			t.Fatalf("detect %d: verdict tenant = %q, want acme", i, v.Tenant)
		}
	}
	_, err = cl.Detect(ctx, detectRequest(t, 2))
	var rl *sdk.ErrRateLimited
	if !errors.As(err, &rl) {
		t.Fatalf("over-quota detect error = %v, want *sdk.ErrRateLimited", err)
	}
	if rl.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0 (extended connection)", rl.RetryAfter)
	}
	var frame *wire.ErrorFrame
	if !errors.As(err, &frame) || frame.Code != wire.CodeOverloaded {
		t.Errorf("underlying frame = %+v, want wrapped 429 ErrorFrame", frame)
	}
}

// TestDialRejectsBadClass pins early validation of the class advisory.
func TestDialRejectsBadClass(t *testing.T) {
	if _, err := sdk.Dial("127.0.0.1:1", sdk.Options{Class: "platinum"}); err == nil {
		t.Fatal("bad class accepted")
	}
}

// TestDialRejectsOversizedTenant pins the HELLO guard: a tenant longer
// than the wire's id limit is refused by Dial as a validation error,
// before any connection is opened, instead of reaching the server as a
// corrupt frame.
func TestDialRejectsOversizedTenant(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tenantID := strings.Repeat("t", wire.MaxIDLen+1)
	_, err = sdk.Dial(ln.Addr().String(), sdk.Options{Tenant: tenantID})
	if err == nil || !strings.HasPrefix(err.Error(), "sdk: ") || !strings.Contains(err.Error(), "over 255 bytes") {
		t.Fatalf("Dial error = %v, want the sdk-wrapped metadata validation error", err)
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("Dial connected although the HELLO metadata was invalid")
	}
}

// TestWindowStreamHelper pins the stream helper against a live server:
// pushes buffer server-side, re-scorings come back labelled
// "label#window", close is clean, and a closed stream refuses pushes.
func TestWindowStreamHelper(t *testing.T) {
	ws := startWireServer(t, "127.0.0.1:0")
	cl, err := sdk.Dial(ws.addr, sdk.Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := prog.Trace(5, 256)
	if err != nil {
		t.Fatal(err)
	}

	st := cl.OpenWindowStream("cam", 2)
	results, err := st.Push(ctx, windows[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "cam#2" {
		t.Fatalf("push 1 results = %+v, want one cam#2", results)
	}
	// Window 3 left one window pending; window 4 completes the stride.
	if results, err = st.Push(ctx, windows[3:4]); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "cam#4" {
		t.Fatalf("push 2 results = %+v, want one cam#4", results)
	}
	// One window since the last re-scoring: buffers, acked empty.
	if results, err = st.Push(ctx, windows[4:5]); err != nil || len(results) != 0 {
		t.Fatalf("push 3 = %+v, %v, want empty buffer ack", results, err)
	}
	if err := st.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := st.Close(ctx); err != nil {
		t.Fatalf("re-close: %v", err)
	}
	if _, err := st.Push(ctx, windows[:1]); !errors.Is(err, sdk.ErrClosed) {
		t.Fatalf("push after close = %v, want ErrClosed", err)
	}
}
