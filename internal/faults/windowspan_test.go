package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// walkSpan announces one span of rows×len(w) multiplications over the
// packed lane ids and walks it, returning each position's row outputs.
// With stored set, every row's batch carries each position's stored
// sum: the unchecked MAC where the position clears the weight-activation
// bound, a poisoned value where it does not (where reading it would
// show in the result).
func walkSpan(b *BatchInjector, ids []int, w []fxp.Value, rows int, mkX func(row, pos, i int) fxp.Value, stored bool) [][]fxp.Value {
	n, k := len(w), len(ids)
	xs := make([]fxp.Value, k*n)
	maxAbs := make([]int64, k)
	var sums []int64
	if stored {
		sums = make([]int64, k)
	}
	wAbs := float64(fxp.SumAbs(w))
	out := make([][]fxp.Value, k)
	b.BeginSpan(ids, rows*n)
	for r := 0; r < rows; r++ {
		for j := 0; j < k; j++ {
			var m int64
			for i := 0; i < n; i++ {
				v := mkX(r, j, i)
				xs[j*n+i] = v
				m = max(m, int64(v), -int64(v))
			}
			maxAbs[j] = m
			if stored {
				sums[j] = fxp.DotUnchecked(w, xs[j*n:(j+1)*n])
				if wAbs*float64(m) >= fxp.NoSatBound {
					sums[j] = -0x5EED_5EED
				}
			}
		}
		row := make([]fxp.Value, k)
		b.DotRowBatch(fxp.DefaultFormat, w, &fxp.Batch{Xs: xs, Stride: n, Lanes: ids, MaxAbs: maxAbs, Sums: sums}, row)
		for j, v := range row {
			out[j] = append(out[j], v)
		}
	}
	return out
}

// laneSources are the two ways a lane can hold its stream. A lane on
// rng.NewSource64's *rng.Source takes the planner's hot loop and the
// inlined per-fault draw; a lane on math/rand's own source, seeded
// with the same derived seed, takes the generic path through rand.Rand.
var laneSources = []struct {
	name string
	mk   func(root uint64, lane int) rand.Source64
}{
	{"rng.Source", func(root uint64, lane int) rand.Source64 {
		return rng.NewSource64(root, uint64(lane))
	}},
	{"math/rand", func(root uint64, lane int) rand.Source64 {
		return rand.NewSource(int64(rng.DeriveSeed(root, uint64(lane)))).(rand.Source64)
	}},
}

// TestRepeatedLanesTakeConsecutiveWindows pins the repeated-lane span
// contract: positions sharing a unit lane consume consecutive windows
// of its stream in packed order (runs may be split or interleaved with
// other lanes), bit-identical to a scalar injector walking the windows
// one after another, and leave the same stream state behind. Each
// case runs on both laneSources: the hot path and the generic path
// must also agree with each other on the span plan and, recorded, on
// every lane's draw log. Every case runs with and without stored sums,
// on bounded inputs (every position on the fast paths) and on
// unbounded ones, where the even positions fail fxp.NoSatBound and
// their (poisoned) stored sums must be ignored.
func TestRepeatedLanesTakeConsecutiveWindows(t *testing.T) {
	const n, rows = 29, 6
	bounded := make([]fxp.Value, n)
	unbounded := make([]fxp.Value, n)
	for i := range bounded {
		bounded[i] = fxp.Value(37*i - 500)
		unbounded[i] = fxp.Value((1<<30 - 7919*i) * (1 - 2*(i%2)))
	}
	small := func(row, pos, i int) fxp.Value {
		return fxp.Value((row+1)*(pos+3)*(5*i+2)%8191 - 4095)
	}
	huge := func(row, pos, i int) fxp.Value {
		if pos%2 == 0 {
			return fxp.Value(1<<31 - 1 - (row+1)*(pos+3)*(5*i+2))
		}
		return small(row, pos, i)
	}
	inputs := []struct {
		name string
		w    []fxp.Value
		mkX  func(row, pos, i int) fxp.Value
	}{
		{"bounded", bounded, small},
		{"unbounded", unbounded, huge},
	}
	for _, in := range inputs {
		for _, stored := range []bool{false, true} {
			for _, rate := range []float64{0.003, 0.1, 1} {
				for _, ids := range [][]int{
					{0, 0, 0, 0},
					{0, 0, 1, 1, 1, 2},
					{1, 0, 0, 1, 2, 2, 0},
				} {
					what := fmt.Sprintf("%s stored=%v rate %v ids %v", in.name, stored, rate, ids)
					checkConsecutiveWindows(t, what, rate, ids, in.w, rows, in.mkX, stored)
				}
			}
		}
	}
}

// checkConsecutiveWindows is one case of
// TestRepeatedLanesTakeConsecutiveWindows, on both laneSources.
func checkConsecutiveWindows(t *testing.T, what string, rate float64, ids []int, w []fxp.Value, rows int, mkX func(row, pos, i int) fxp.Value, stored bool) {
	t.Helper()
	n := len(w)
	var firstPlan []spanFault
	var firstLogs []DrawLog
	for si, src := range laneSources {
		streams := make([]rand.Source64, 3)
		for l := range streams {
			streams[l] = src.mk(0x3A7, l)
		}
		b, err := NewBatchInjector(rate, nil, streams)
		if err != nil {
			t.Fatal(err)
		}
		if hot := b.Lane(0).src != nil; hot != (si == 0) {
			t.Fatalf("%s lane takes the hot path: %v", src.name, hot)
		}
		_, refs := batchStreams(0x3A7, 3)
		scalar := make([]*Injector, 3)
		for l := range scalar {
			if scalar[l], err = NewInjector(rate, nil, refs[l]); err != nil {
				t.Fatal(err)
			}
		}
		got := walkSpan(b, ids, w, rows, mkX, stored)
		plan := append([]spanFault(nil), b.plan...)
		x := make([]fxp.Value, n)
		for j, l := range ids {
			for r := 0; r < rows; r++ {
				for i := range x {
					x[i] = mkX(r, j, i)
				}
				if want := mulDot(scalar[l], fxp.DefaultFormat, w, x); got[j][r] != want {
					t.Fatalf("%s %s position %d row %d: span %d, scalar %d", src.name, what, j, r, got[j][r], want)
				}
			}
		}
		for l := range scalar {
			if b.Lane(l).gap != scalar[l].gap || b.Lane(l).Stats() != scalar[l].Stats() {
				t.Fatalf("%s %s lane %d: gap %d stats %+v, scalar gap %d stats %+v",
					src.name, what, l, b.Lane(l).gap, b.Lane(l).Stats(), scalar[l].gap, scalar[l].Stats())
			}
		}

		// The same walk recorded, on fresh streams: a recording lane
		// records from its plan on the hot path and per draw on the
		// generic one; outputs must match the unrecorded walk, and the
		// two sources' logs must match each other below.
		for l := range streams {
			streams[l] = src.mk(0x3A7, l)
		}
		if err := b.Reset(rate, nil, streams); err != nil {
			t.Fatal(err)
		}
		logs := make([]DrawLog, 3)
		for l := range logs {
			b.Lane(l).StartRecord(&logs[l])
		}
		recorded := walkSpan(b, ids, w, rows, mkX, stored)
		for j := range got {
			if !slices.Equal(recorded[j], got[j]) {
				t.Fatalf("%s %s position %d: recorded walk %v, unrecorded %v", src.name, what, j, recorded[j], got[j])
			}
		}
		if si == 0 {
			firstPlan, firstLogs = plan, logs
			continue
		}
		if !slices.Equal(plan, firstPlan) {
			t.Fatalf("%s %s: span plan %v, %s plan %v", src.name, what, plan, laneSources[0].name, firstPlan)
		}
		for l := range logs {
			if !slices.Equal(logs[l].Gaps, firstLogs[l].Gaps) || !slices.Equal(logs[l].Bits, firstLogs[l].Bits) ||
				logs[l].InitialGap != firstLogs[l].InitialGap {
				t.Fatalf("%s %s lane %d: draw log %+v, %s log %+v", src.name, what, l, logs[l], laneSources[0].name, firstLogs[l])
			}
		}
	}
}

// TestWindowInflationPerPosition pins the fast-path bound input: each
// position's inflation is Σ2^bit over its own window only, and the
// row-wide bound is their maximum, not the run's total.
func TestWindowInflationPerPosition(t *testing.T) {
	streams, _ := batchStreams(0x1F1, 1)
	b, err := NewBatchInjector(1, nil, streams)
	if err != nil {
		t.Fatal(err)
	}
	const muls = 300
	ids := []int{0, 0, 0, 0, 0}
	b.BeginSpan(ids, muls)
	maxInfl := 0.0
	for j := range ids {
		sp := &b.spans[j]
		if len(sp.entries) != muls {
			t.Fatalf("position %d: %d faults at rate 1, want %d", j, len(sp.entries), muls)
		}
		infl := 0.0
		for _, e := range sp.entries {
			if s := e.site(); s < int64(j*muls) || s >= int64((j+1)*muls) {
				t.Fatalf("position %d holds site %d outside its window", j, s)
			}
			infl += float64(uint64(1) << e.bit())
		}
		if sp.inflTotal != infl {
			t.Fatalf("position %d: inflation %v, own window sums to %v", j, sp.inflTotal, infl)
		}
		maxInfl = max(maxInfl, infl)
	}
	if b.maxInfl != maxInfl {
		t.Fatalf("row bound inflation %v, want the per-window max %v", b.maxInfl, maxInfl)
	}
}

// TestRepeatedLaneWithoutSpanPanics: a live row draws straight from
// the lane's stream, so repeating a lane without an announced span
// would misorder it — DotRowBatch must refuse, as it refuses an
// overrun or a position addressed as another lane than announced.
func TestRepeatedLaneWithoutSpanPanics(t *testing.T) {
	streams, _ := batchStreams(0x9A1, 2)
	b, err := NewBatchInjector(0.1, nil, streams)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]fxp.Value, 8)
	xs := make([]fxp.Value, 3*8)
	out := make([]fxp.Value, 3)
	mustPanic := func(what, want string, ids []int) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), want) {
				t.Fatalf("%s: recovered %v, want a panic containing %q", what, r, want)
			}
		}()
		b.DotRowBatch(fxp.DefaultFormat, w, &fxp.Batch{Xs: xs[:len(ids)*8], Stride: 8, Lanes: ids}, out[:len(ids)])
	}
	const repeated = "without an announced span"
	mustPanic("no span", repeated, []int{1, 0, 1})
	// An announced run does not cover a live position on the same lane.
	b.BeginSpan([]int{0, 0}, 8)
	mustPanic("span and live position on one lane", repeated, []int{0, 0, 0})
	// Nor may a position be addressed as another lane than announced.
	b.BeginSpan([]int{0, 1}, 8)
	mustPanic("swapped lanes", "announced lane", []int{1, 0})
	// Distinct lanes stay legal on the live path.
	b.dropSpans()
	b.DotRowBatch(fxp.DefaultFormat, w, &fxp.Batch{Xs: xs[:16], Stride: 8, Lanes: []int{1, 0}}, out[:2])
}

// TestSetRateDropsEveryPackedSpan: a rate change discards the plans of
// every packed position of an injector's one-lane view.
func TestSetRateDropsEveryPackedSpan(t *testing.T) {
	in, err := NewInjectorSource(0.1, nil, rng.NewSource64(0x5D6))
	if err != nil {
		t.Fatal(err)
	}
	v := in.batchView()
	v.BeginSpan([]int{0, 0, 0, 0}, 100)
	if err := in.SetRate(0.2); err != nil {
		t.Fatal(err)
	}
	for j, sp := range v.spans {
		if sp.active {
			t.Fatalf("view SetRate left position %d's span active", j)
		}
	}
}

// TestResetMatchesFreshInjector: re-arming an injector over re-seeded
// sources, narrower or wider than before, draws exactly what a freshly
// built injector draws.
func TestResetMatchesFreshInjector(t *testing.T) {
	const n, rows = 21, 5
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(61*i - 700)
	}
	mkX := func(row, pos, i int) fxp.Value {
		return fxp.Value((row+2)*(pos+1)*(i+7)%8191 - 4095)
	}
	srcs := make([]rand.Source64, 0, 5)
	var reused *BatchInjector
	for pass, width := range []int{3, 2, 5, 5} {
		rate := []float64{0.1, 0.003, 0.1, 1}[pass]
		for len(srcs) < width {
			srcs = append(srcs, rng.NewSource64(0))
		}
		fresh := make([]rand.Source64, width)
		for l := 0; l < width; l++ {
			rng.Reseed(srcs[l], 0xEE, uint64(pass), uint64(l))
			fresh[l] = rng.NewSource64(0xEE, uint64(pass), uint64(l))
		}
		ref, err := NewBatchInjector(rate, nil, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if reused == nil {
			reused, err = NewBatchInjector(rate, nil, srcs[:width])
		} else {
			err = reused.Reset(rate, nil, srcs[:width])
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(reused.lanes) != width {
			t.Fatalf("pass %d: %d lanes after Reset, want %d", pass, len(reused.lanes), width)
		}
		ids := make([]int, 0, 2*width)
		for l := 0; l < width; l++ {
			ids = append(ids, l, l)
		}
		got := walkSpan(reused, ids, w, rows, mkX, pass%2 == 1)
		want := walkSpan(ref, ids, w, rows, mkX, false)
		for j := range want {
			for r := range want[j] {
				if got[j][r] != want[j][r] {
					t.Fatalf("pass %d position %d row %d: reset %d, fresh %d", pass, j, r, got[j][r], want[j][r])
				}
			}
		}
		for l := 0; l < width; l++ {
			if reused.Lane(l).gap != ref.Lane(l).gap || reused.Lane(l).Stats() != ref.Lane(l).Stats() {
				t.Fatalf("pass %d lane %d: stream state differs from a fresh injector", pass, l)
			}
		}
	}
	if err := reused.Reset(0.1, nil, []rand.Source64{nil}); err == nil {
		t.Fatal("nil lane source accepted")
	}
}

// TestUnannouncedRowIsOneRowSpan pins the one-plan contract: a row that
// arrives with no announced span runs exactly as BeginSpan(its lanes,
// its length) followed by the same row — the same outputs, the same
// stream positions and the same Stats — over the identity lanes [0,k)
// and in the ragged-dropout shape of TestBatchInjectorRaggedDropout, in
// both sampler regimes and at rate 1, with and without magnitude
// bounds.
func TestUnannouncedRowIsOneRowSpan(t *testing.T) {
	f := fxp.DefaultFormat
	const n, rows, k = 33, 30, 7
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(53*i - 800)
	}
	laneRows := []int{30, 30, 22, 19, 12, 5, 1}
	for _, rate := range []float64{0.004, 0.1, 1} {
		for _, bounded := range []bool{false, true} {
			what := fmt.Sprintf("rate %v bounded %v", rate, bounded)
			liveSrc, _ := batchStreams(0x1A7, k)
			spanSrc, _ := batchStreams(0x1A7, k)
			live, err := NewBatchInjector(rate, nil, liveSrc)
			if err != nil {
				t.Fatal(err)
			}
			span, err := NewBatchInjector(rate, nil, spanSrc)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				var active []int
				for l := 0; l < k; l++ {
					if r < laneRows[l] {
						active = append(active, l)
					}
				}
				xs := make([]fxp.Value, len(active)*n)
				maxAbs := make([]int64, len(active))
				for p, lane := range active {
					for i := 0; i < n; i++ {
						v := fxp.Value((r+3)*(lane+2)*(i+11)%8191 - 4095)
						xs[p*n+i] = v
						maxAbs[p] = max(maxAbs[p], int64(v), -int64(v))
					}
				}
				bt := &fxp.Batch{Xs: xs, Stride: n, Lanes: active}
				if len(active) == k {
					bt.Lanes = nil // the identity lanes [0,k)
				}
				if bounded {
					bt.MaxAbs = maxAbs
				}
				got := make([]fxp.Value, len(active))
				want := make([]fxp.Value, len(active))
				live.DotRowBatch(f, w, bt, got)
				span.BeginSpan(active, n)
				span.DotRowBatch(f, w, bt, want)
				for p := range active {
					if got[p] != want[p] {
						t.Fatalf("%s row %d lane %d: unannounced %d, announced %d", what, r, active[p], got[p], want[p])
					}
				}
			}
			if live.Stats() != span.Stats() {
				t.Fatalf("%s: unannounced stats %+v, announced %+v", what, live.Stats(), span.Stats())
			}
			for l := 0; l < k; l++ {
				if g, s := live.Lane(l).gap, span.Lane(l).gap; g != s {
					t.Fatalf("%s lane %d: unannounced pending gap %d, announced %d", what, l, g, s)
				}
				if g, s := liveSrc[l].Uint64(), spanSrc[l].Uint64(); g != s {
					t.Fatalf("%s lane %d: streams diverged", what, l)
				}
			}
		}
	}
}

// TestMixedRowPanics: a row whose positions are partly span-active and
// partly unannounced is refused whichever way round, since planning the
// unannounced positions would drop or misalign the announced plans.
func TestMixedRowPanics(t *testing.T) {
	streams, _ := batchStreams(0x9A2, 3)
	b, err := NewBatchInjector(0.1, nil, streams)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]fxp.Value, 8)
	xs := make([]fxp.Value, 3*8)
	out := make([]fxp.Value, 3)
	row := func(k int) {
		b.DotRowBatch(fxp.DefaultFormat, w, &fxp.Batch{Xs: xs[:k*8], Stride: 8}, out[:k])
	}
	mustPanic := func(what string, k int) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), "announced span") {
				t.Fatalf("%s: recovered %v, want a mixed-row panic", what, r)
			}
		}()
		row(k)
	}
	// Positions 0 and 1 announced, position 2 not.
	b.BeginSpan([]int{0, 1}, 8)
	mustPanic("announced then unannounced", 3)
	// Position 0's window consumed, position 1's still pending.
	b.BeginSpan([]int{0, 1}, 8)
	row(1)
	mustPanic("unannounced then announced", 2)
}
