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
				want := Dot(Exact{}, f, w, xs[j*stride:j*stride+n])
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
			want := Dot(Exact{}, f, w, xs[j*stride:j*stride+n])
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
			want := Dot(Exact{}, f, w, xs[j*stride:j*stride+n])
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
