package faults

import (
	"testing"

	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// TestSetRateCycleMatchesFresh pins the Session enter/exit cycle
// (rate 0 → r → 0) against its definition: after each cycle the
// injector draws exactly what a freshly built injector on the same
// stream would, because SetRate discards the pending gap. It also
// checks the cycle reuses the cached gap table instead of rebuilding
// it, and that a zero-rate pass in between draws nothing.
func TestSetRateCycleMatchesFresh(t *testing.T) {
	const (
		rowLen = 65
		rows   = 40
	)
	f := fxp.DefaultFormat
	for _, rate := range []float64{0.004, 0.1, 0.5} {
		cycled, err := NewInjector(rate, nil, rng.NewRand(5, 1))
		if err != nil {
			t.Fatal(err)
		}
		table := cycled.gapTable
		stream := rng.NewRand(5, 1) // the fresh injectors' shared stream
		gen := rng.NewRand(6)
		for seg := 0; seg < 6; seg++ {
			if seg > 0 {
				if err := cycled.SetRate(0); err != nil {
					t.Fatal(err)
				}
				w := []fxp.Value{3, -7}
				if got, want := rowDot(cycled, f, w, w), mulDot(fxp.Exact{}, f, w, w); got != want {
					t.Fatalf("rate %v: zero-rate row %d, want exact", rate, got)
				}
				if err := cycled.SetRate(rate); err != nil {
					t.Fatal(err)
				}
				if cycled.gapTable != table {
					t.Fatalf("rate %v cycle %d: gap table rebuilt", rate, seg)
				}
			}
			fresh, err := NewInjector(rate, nil, stream)
			if err != nil {
				t.Fatal(err)
			}
			// Leave a gap pending mid-row at the end of each segment, so a
			// cycle that failed to discard it would shift every later
			// fault site.
			for r := 0; r < rows+seg; r++ {
				w := make([]fxp.Value, rowLen)
				x := make([]fxp.Value, rowLen)
				for i := range w {
					w[i] = fxp.Value(gen.Int31n(1<<16)) - 1<<15
					x[i] = fxp.Value(gen.Int31n(1<<16)) - 1<<15
				}
				if got, want := rowDot(cycled, f, w, x), mulDot(fresh, f, w, x); got != want {
					t.Fatalf("rate %v segment %d row %d: cycled %d, fresh %d", rate, seg, r, got, want)
				}
			}
			if cycled.gap != fresh.gap {
				t.Fatalf("rate %v segment %d: pending gap %d, fresh %d", rate, seg, cycled.gap, fresh.gap)
			}
		}
	}
}

// TestGapTableCacheBounded checks that the cache serves a repeated rate
// from its slot and that a sweep over more distinct rates than it has
// slots — chaos temperature drift — still yields a correct table for
// every rate.
func TestGapTableCacheBounded(t *testing.T) {
	if gapTableFor(0.1) != gapTableFor(0.1) {
		t.Fatal("repeated rate missed the cache")
	}
	for i := 0; i < 4*gapTableCacheSize; i++ {
		rate := 0.05 + float64(i)*1e-3
		if tb := gapTableFor(rate); tb.rate != rate {
			t.Fatalf("rate %v: got table for %v", rate, tb.rate)
		}
	}
	for i := range gapTables.slots {
		if gapTables.slots[i].Load() == nil {
			t.Fatalf("slot %d empty after %d distinct rates", i, 4*gapTableCacheSize)
		}
	}
}

// TestBatchViewTracksInjector checks the one-lane view is built once
// over the injector itself, and that a rate change drops any
// presampled span the view holds.
func TestBatchViewTracksInjector(t *testing.T) {
	src := rng.NewSource64(8, 2)
	in, err := NewInjectorSource(0.1, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	v := in.batchView()
	if in.batchView() != v || len(v.lanes) != 1 || v.Lane(0) != in {
		t.Fatal("view not a cached one-lane view of the injector")
	}
	v.BeginSpan([]int{0}, 1000)
	if err := in.SetRate(0.25); err != nil {
		t.Fatal(err)
	}
	if v.spans[0].active {
		t.Fatal("SetRate left the view's span active")
	}
	if _, err := NewInjectorSource(0.1, nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}
