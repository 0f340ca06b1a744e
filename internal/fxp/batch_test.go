package fxp

import (
	"math"
	"math/rand"
	"testing"
)

// randLanes builds a lane-major arena of k lanes of n values drawn
// from the given magnitude range.
func randLanes(rnd *rand.Rand, k, n, stride int, maxMag int32) []Value {
	xs := make([]Value, k*stride)
	for i := range xs {
		xs[i] = Value(rnd.Int31n(2*maxMag+1) - maxMag)
	}
	return xs
}

func randRow(rnd *rand.Rand, n int, maxMag int32) []Value {
	w := make([]Value, n)
	for i := range w {
		w[i] = Value(rnd.Int31n(2*maxMag+1) - maxMag)
	}
	return w
}

// TestBatchDotMatchesScalar pins the checked batch kernel to the
// scalar reference across batch sizes, including the tail lanes the
// 4-lane blocking leaves for the cleanup loop.
func TestBatchDotMatchesScalar(t *testing.T) {
	f := DefaultFormat
	rnd := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 16, 64} {
		for _, n := range []int{1, 2, 33, 65} {
			stride := n + 3 // deliberately padded
			w := randRow(rnd, n, 1<<14)
			xs := randLanes(rnd, k, n, stride, 1<<14)
			out := make([]Value, k)
			BatchDot(f, w, xs, stride, out)
			for j := 0; j < k; j++ {
				want := refDot(f, w, xs[j*stride:j*stride+n])
				if out[j] != want {
					t.Fatalf("k=%d n=%d lane %d: batch %d, scalar %d", k, n, j, out[j], want)
				}
			}
		}
	}
}

// TestBatchAccumSaturation drives the blocked kernel into accumulator
// saturation with adversarial magnitudes and checks the per-lane
// saturating-add sequence stays identical to AccumExact — including
// the non-sticky recovery after a saturated step.
func TestBatchAccumSaturation(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	const n, k = 64, 6
	stride := n
	w := make([]Value, n)
	xs := make([]Value, k*stride)
	for i := range w {
		w[i] = Value(rnd.Int31()) // full-range weights
	}
	for i := range xs {
		xs[i] = Value(rnd.Int31())
		if rnd.Intn(2) == 0 {
			xs[i] = -xs[i]
		}
	}
	accs := make([]Product, k)
	BatchAccum(accs, w, xs, stride)
	for j := 0; j < k; j++ {
		want := AccumExact(0, w, xs[j*stride:j*stride+n])
		if accs[j] != want {
			t.Fatalf("lane %d: batch %d, scalar %d", j, accs[j], want)
		}
	}
}

// TestDotUncheckedExactUnderBound checks the fast-path kernel against
// the saturating reference whenever the magnitude bound holds — the
// exact precondition under which DotRowBatch selects it.
func TestDotUncheckedExactUnderBound(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(90)
		w := randRow(rnd, n, 1<<20)
		x := randRow(rnd, n, 1<<20)
		var maxAbs int64
		for _, v := range x {
			a := int64(v)
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		if float64(SumAbs(w))*float64(maxAbs) >= noSatBound {
			continue
		}
		got := Product(DotUnchecked(w, x))
		want := AccumExact(0, w, x)
		if got != want {
			t.Fatalf("trial %d: unchecked %d, checked %d", trial, got, want)
		}
	}
}

// storedSums returns each lane's stored sum as a batch carries it: the
// unchecked MAC for lanes that clear the no-saturation bound, and a
// poisoned value for lanes that do not, which a unit must never read.
func storedSums(w, xs []Value, stride int, maxAbs []int64) []int64 {
	wAbs := float64(SumAbs(w))
	sums := make([]int64, len(maxAbs))
	for j := range sums {
		sums[j] = DotUnchecked(w, xs[j*stride:j*stride+len(w)])
		if wAbs*float64(maxAbs[j]) >= noSatBound {
			sums[j] = -0x5EED_5EED
		}
	}
	return sums
}

// TestExactDotRowBatch covers both unit paths: bounded lanes (fast
// path) and unbounded/adversarial lanes (checked path), with a lane
// map that permutes packed positions, with and without stored sums.
func TestExactDotRowBatch(t *testing.T) {
	f := DefaultFormat
	rnd := rand.New(rand.NewSource(4))
	const n, k = 33, 7
	stride := n + 1
	w := randRow(rnd, n, 1<<13)
	xs := randLanes(rnd, k, n, stride, 1<<13)
	maxAbs := make([]int64, k)
	for j := 0; j < k; j++ {
		for _, v := range xs[j*stride : j*stride+n] {
			a := int64(v)
			if a < 0 {
				a = -a
			}
			if a > maxAbs[j] {
				maxAbs[j] = a
			}
		}
	}
	lanes := []int{6, 0, 3, 1, 5, 2, 4}
	for _, c := range []struct{ bounds, sums bool }{{true, false}, {true, true}, {false, false}, {false, true}} {
		b := &Batch{Xs: xs, Stride: stride, Lanes: lanes}
		if c.bounds {
			b.MaxAbs = maxAbs
			b.WAbs = float64(SumAbs(w))
		}
		if c.sums {
			b.Sums = storedSums(w, xs, stride, maxAbs)
		}
		out := make([]Value, k)
		Exact{}.DotRowBatch(f, w, b, out)
		for j := 0; j < k; j++ {
			want := refDot(f, w, xs[j*stride:j*stride+n])
			if out[j] != want {
				t.Fatalf("%+v lane %d: batch %d, scalar %d", c, j, out[j], want)
			}
		}
	}
}

// TestExactDotRowBatchSaturatingLane forces one lane over the bound so
// the unit must fall back to the checked kernel for it while the other
// lanes stay on the fast path — all lanes must still match the scalar
// reference exactly, with and without stored sums (the over-bound
// lane's stored sum is poisoned, so reading it would show).
func TestExactDotRowBatchSaturatingLane(t *testing.T) {
	f := DefaultFormat
	const n, k = 48, 5
	stride := n
	w := make([]Value, n)
	xs := make([]Value, k*stride)
	rnd := rand.New(rand.NewSource(5))
	for i := range w {
		w[i] = Value(rnd.Int31()>>1 + 1)
	}
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			if j == 2 {
				xs[j*stride+i] = math.MaxInt32 // saturating lane
			} else {
				xs[j*stride+i] = Value(rnd.Int31n(1 << 10))
			}
		}
	}
	maxAbs := make([]int64, k)
	for j := 0; j < k; j++ {
		for _, v := range xs[j*stride : j*stride+n] {
			if int64(v) > maxAbs[j] {
				maxAbs[j] = int64(v)
			}
		}
	}
	for _, sums := range [][]int64{nil, storedSums(w, xs, stride, maxAbs)} {
		b := &Batch{Xs: xs, Stride: stride, MaxAbs: maxAbs, WAbs: float64(SumAbs(w)), Sums: sums}
		out := make([]Value, k)
		Exact{}.DotRowBatch(f, w, b, out)
		for j := 0; j < k; j++ {
			want := refDot(f, w, xs[j*stride:j*stride+n])
			if out[j] != want {
				t.Fatalf("stored sums %v lane %d: batch %d, scalar %d", sums != nil, j, out[j], want)
			}
		}
	}
	b := &Batch{WAbs: float64(SumAbs(w))}
	if float64(maxAbs[2])*b.WAbs < noSatBound {
		t.Fatal("test construction broken: lane 2 should exceed the fast-path bound")
	}
}

// TestBatchLaneMapping checks Batch.Lane's identity default.
func TestBatchLaneMapping(t *testing.T) {
	b := &Batch{}
	if b.Lane(3) != 3 {
		t.Fatalf("identity Lane(3) = %d", b.Lane(3))
	}
	b.Lanes = []int{9, 4}
	if b.Lane(1) != 4 {
		t.Fatalf("mapped Lane(1) = %d", b.Lane(1))
	}
}

func BenchmarkDotUnchecked65(b *testing.B) {
	rnd := rand.New(rand.NewSource(6))
	w := randRow(rnd, 65, 1<<14)
	x := randRow(rnd, 65, 1<<14)
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += DotUnchecked(w, x)
	}
	_ = sink
}

func BenchmarkBatchAccum65x16(b *testing.B) {
	rnd := rand.New(rand.NewSource(7))
	const n, k = 65, 16
	w := randRow(rnd, n, 1<<14)
	xs := randLanes(rnd, k, n, n, 1<<14)
	accs := make([]Product, k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BatchAccum(accs, w, xs, n)
	}
}

// fullRangeLanes fills a row of n weights and k lanes at stride of
// full-range int32 inputs from seed, pushing about one value in eight
// to ±2^31 so products reach 2^62 and sums wrap.
func fullRangeLanes(seed int64, n, k, stride int) (w, xs []Value) {
	rnd := rand.New(rand.NewSource(seed))
	draw := func() Value {
		switch rnd.Intn(16) {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		}
		return Value(int32(rnd.Uint32()))
	}
	w = make([]Value, n)
	for i := range w {
		w[i] = draw()
	}
	size := 0
	if k > 0 {
		size = (k-1)*stride + n
	}
	xs = make([]Value, size)
	for i := range xs {
		xs[i] = draw()
	}
	return w, xs
}

// checkDotUncheckedBatch compares DotUncheckedBatch, which runs the
// kernel this CPU selected, with DotUncheckedBatchGo and with the
// per-lane DotUnchecked, sum for sum: every kernel wraps the same way,
// so they agree on every input, bound or no bound.
func checkDotUncheckedBatch(t *testing.T, seed int64, n, k, stride int) {
	t.Helper()
	w, xs := fullRangeLanes(seed, n, k, stride)
	got := make([]int64, k)
	for j := range got {
		got[j] = -0x5EED // a kernel must overwrite every lane
	}
	DotUncheckedBatch(w, xs, stride, got)
	want := make([]int64, k)
	DotUncheckedBatchGo(w, xs, stride, want)
	for j := 0; j < k; j++ {
		lane := DotUnchecked(w, xs[j*stride:j*stride+n])
		if got[j] != want[j] || want[j] != lane {
			t.Fatalf("%s kernel, seed %d n=%d k=%d stride=%d lane %d: got %d, Go kernel %d, DotUnchecked %d",
				MACKernel(), seed, n, k, stride, j, got[j], want[j], lane)
		}
	}
}

// TestDotUncheckedBatchMatchesGo pins the selected kernel to the Go
// reference across row lengths around the 4-element vector width
// (n < 4 runs only the scalar tail), lane counts around the 4-lane
// block (k%4 leftovers run one lane at a time), and padded strides.
func TestDotUncheckedBatchMatchesGo(t *testing.T) {
	seed := int64(0)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 33, 64, 65, 71} {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 20} {
			for _, pad := range []int{0, 1, 3} {
				seed++
				checkDotUncheckedBatch(t, seed, n, k, n+pad)
			}
		}
	}
}

// TestDotUncheckedBatchOverrun checks that a lane layout reaching past
// xs panics before any kernel reads it.
func TestDotUncheckedBatchOverrun(t *testing.T) {
	w := make([]Value, 8)
	for _, c := range []struct {
		xs, stride, k int
	}{
		{7, 8, 1},        // one lane shorter than the row
		{23, 8, 3},       // last lane one element short
		{64, -8, 2},      // negative stride
		{64, 1 << 62, 5}, // last lane's offset wraps to 0
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: no panic", c)
				}
			}()
			DotUncheckedBatch(w, make([]Value, c.xs), c.stride, make([]int64, c.k))
		}()
	}
}

// FuzzDotUncheckedBatch differentially fuzzes the selected kernel
// against the Go reference over full-range inputs, rows of 0-79
// elements, 0-20 lanes and strides of n to n+7.
func FuzzDotUncheckedBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(5), uint8(1))
	f.Add(int64(3), uint8(65), uint8(16), uint8(0))
	f.Add(int64(4), uint8(71), uint8(19), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, k, pad uint8) {
		rowLen := int(n % 80)
		checkDotUncheckedBatch(t, seed, rowLen, int(k%21), rowLen+int(pad%8))
	})
}

func BenchmarkDotUncheckedBatch65x16(b *testing.B) {
	rnd := rand.New(rand.NewSource(8))
	const n, k = 65, 16
	w := randRow(rnd, n, 1<<14)
	xs := randLanes(rnd, k, n, n, 1<<14)
	accs := make([]int64, k)
	for _, kern := range []struct {
		name string
		dot  func(w, xs []Value, stride int, accs []int64)
	}{{MACKernel(), DotUncheckedBatch}, {"go", DotUncheckedBatchGo}} {
		b.Run(kern.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kern.dot(w, xs, n, accs)
			}
		})
	}
}
