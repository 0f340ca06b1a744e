package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"shmd/internal/core"
	"shmd/internal/trace"
)

func newTestPool(t testing.TB, cfg PoolConfig) *Pool {
	t.Helper()
	if cfg.ErrorRate == 0 && cfg.UndervoltMV == 0 {
		cfg.ErrorRate = 0.1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p, err := NewPool(testHMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolExclusivity hammers checkout from many goroutines and proves
// no session is ever held by two owners at once.
func TestPoolExclusivity(t *testing.T) {
	const workers, rounds = 32, 50
	p := newTestPool(t, PoolConfig{Size: 4})
	windows := testWindows(t, trace.Trojan, 0, 2)

	// held[id] flips 0→1→0 under each checkout; a CAS failure means
	// two goroutines owned the same slot simultaneously.
	held := make([]sync.Mutex, p.Size())
	owned := make([]bool, p.Size())
	var mu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				slot, err := p.Acquire(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if owned[slot.ID] {
					mu.Unlock()
					t.Errorf("slot %d acquired while owned", slot.ID)
					p.Release(slot)
					return
				}
				owned[slot.ID] = true
				mu.Unlock()

				// Exercise the session while exclusively owned.
				held[slot.ID].Lock()
				if _, err := slot.Sup.DetectProgram(windows); err != nil {
					t.Error(err)
				}
				held[slot.ID].Unlock()

				mu.Lock()
				owned[slot.ID] = false
				mu.Unlock()
				p.Release(slot)
			}
		}()
	}
	wg.Wait()
	if got := p.DoubleCheckouts(); got != 0 {
		t.Errorf("double checkouts = %d", got)
	}
	// Every slot parked again.
	if got := len(p.slots); got != p.Size() {
		t.Errorf("parked slots = %d, want %d", got, p.Size())
	}
	var served uint64
	for _, slot := range p.Slots() {
		served += slot.Sup.Health().Detections
	}
	if served != workers*rounds {
		t.Errorf("served = %d, want %d", served, workers*rounds)
	}
}

// TestPoolAcquireContext verifies a canceled wait surfaces ctx.Err.
func TestPoolAcquireContext(t *testing.T) {
	p := newTestPool(t, PoolConfig{Size: 1})
	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	p.Release(slot)
	// The released slot is acquirable again.
	slot2, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.Release(slot2)
}

// TestPoolClose verifies close refuses new checkouts and rolls every
// plane back to nominal.
func TestPoolClose(t *testing.T) {
	p := newTestPool(t, PoolConfig{Size: 2})
	windows := testWindows(t, trace.Worm, 0, 2)
	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slot.Sup.DetectProgram(windows); err != nil {
		t.Fatal(err)
	}
	p.Release(slot)

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("acquire after close = %v, want ErrPoolClosed", err)
	}
	for _, slot := range p.Slots() {
		if !slot.Sup.Session().AtNominal() {
			t.Errorf("slot %d not at nominal after close", slot.ID)
		}
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestAcquireWakesOnClose pins that a checkout with no deadline cannot
// outlive the pool: with every slot quarantined and its respawn
// pending, Close stops the respawns without parking anything, so only
// the close itself can release a waiter.
func TestAcquireWakesOnClose(t *testing.T) {
	p := newTestPool(t, PoolConfig{Size: 2, Lifecycle: LifecycleConfig{
		Enabled:           true,
		RespawnBackoff:    time.Hour,
		RespawnMaxBackoff: time.Hour,
	}})
	for i := 0; i < p.Size(); i++ {
		slot, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		p.quarantine(slot)
	}
	if got := p.QuarantinedNow(); got != int64(p.Size()) {
		t.Fatalf("quarantined = %d, want %d", got, p.Size())
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Acquire(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Acquire returned %v with no slot parked and the pool open", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolClosed) {
			t.Errorf("waiter err = %v, want ErrPoolClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire still blocked after Close")
	}
}

// TestPoolFreshBuffers proves pooled detectors share weights but not
// scratch state: concurrent inference from every slot yields the same
// decisions as serial inference.
func TestPoolFreshBuffers(t *testing.T) {
	p := newTestPool(t, PoolConfig{Size: 4, ErrorRate: 0.2})
	windows := testWindows(t, trace.Backdoor, 0, 8)

	// Serial reference pass, one per slot (fresh pool for identical
	// fault-stream positions).
	ref := newTestPool(t, PoolConfig{Size: 4, ErrorRate: 0.2})
	want := make([]core.Verdict, ref.Size())
	for i, slot := range ref.Slots() {
		v, err := slot.Sup.DetectProgram(windows)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	got := make([]core.Verdict, p.Size())
	var wg sync.WaitGroup
	for i, slot := range p.Slots() {
		wg.Add(1)
		go func(i int, slot *Slot) {
			defer wg.Done()
			v, err := slot.Sup.DetectProgram(windows)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = v
		}(i, slot)
	}
	wg.Wait()
	for i := range want {
		if got[i].Malware != want[i].Malware || got[i].Score != want[i].Score {
			t.Errorf("slot %d concurrent verdict %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestPoolDistinctStreams verifies slots draw from distinct fault
// streams (per-slot derived seeds), so the pool as a whole is a moving
// target rather than four copies of one stochastic trajectory.
func TestPoolDistinctStreams(t *testing.T) {
	p := newTestPool(t, PoolConfig{Size: 4, ErrorRate: 0.2})
	windows := testWindows(t, trace.PasswordStealer, 0, 8)
	scores := map[float64]int{}
	for _, slot := range p.Slots() {
		v, err := slot.Sup.DetectProgram(windows)
		if err != nil {
			t.Fatal(err)
		}
		scores[v.Score]++
	}
	if len(scores) < 2 {
		t.Errorf("all %d slots produced identical scores %v — shared fault stream?", p.Size(), scores)
	}
}
