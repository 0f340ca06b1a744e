package faults

import (
	"math"
	"math/rand"
	"testing"

	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// batchStreams derives one independent lane source per lane from a
// root seed, plus an identically-seeded *rand.Rand set so a scalar
// reference injector can shadow each lane draw-for-draw.
func batchStreams(root uint64, lanes int) (a []rand.Source64, b []*rand.Rand) {
	a = make([]rand.Source64, lanes)
	b = make([]*rand.Rand, lanes)
	for l := 0; l < lanes; l++ {
		a[l] = rng.NewSource64(root, uint64(l))
		b[l] = rng.NewRand(root, uint64(l))
	}
	return a, b
}

// batchSizes are the issue-pinned bit-identity batch sizes, covering
// the blocked-kernel tail (1, 2, 7) and a full batch (64).
var batchSizes = []int{1, 2, 7, 64}

// runLaneRows pushes `rows` rows of length n through every lane of a
// batch injector using a lane-major arena, returning the per-lane
// outputs of every row. With stored set, the rows carry stored sums
// as walkSpan's do: exact where a lane clears the weight-activation
// bound, poisoned where it does not.
func runLaneRows(t *testing.T, b *BatchInjector, f fxp.Format, w []fxp.Value, rows int, mkX func(row, lane, i int) fxp.Value, stored bool) [][]fxp.Value {
	t.Helper()
	k := len(b.lanes)
	n := len(w)
	stride := n
	xs := make([]fxp.Value, k*stride)
	maxAbs := make([]int64, k)
	var sums []int64
	if stored {
		sums = make([]int64, k)
	}
	wAbs := float64(fxp.SumAbs(w))
	out := make([][]fxp.Value, rows)
	for r := 0; r < rows; r++ {
		for l := 0; l < k; l++ {
			var m int64
			for i := 0; i < n; i++ {
				v := mkX(r, l, i)
				xs[l*stride+i] = v
				if a := int64(v); a > m {
					m = a
				} else if -a > m {
					m = -a
				}
			}
			maxAbs[l] = m
			if stored {
				sums[l] = fxp.DotUnchecked(w, xs[l*stride:l*stride+n])
				if wAbs*float64(m) >= fxp.NoSatBound {
					sums[l] = -0x5EED_5EED
				}
			}
		}
		bt := &fxp.Batch{Xs: xs, Stride: stride, MaxAbs: maxAbs, Sums: sums}
		row := make([]fxp.Value, k)
		b.DotRowBatch(f, w, bt, row)
		out[r] = row
	}
	return out
}

// TestBatchInjectorBitIdentity is the core pinning test: every lane of
// a batched row walk must produce bit-identical results to a scalar
// Injector consuming the same stream over the same multiplication
// sequence — at every issue-pinned batch size, across rows whose gaps
// span row boundaries, at several rates (gap-table and log-inversion
// regimes), with and without stored sums.
func TestBatchInjectorBitIdentity(t *testing.T) {
	f := fxp.DefaultFormat
	const n, rows = 33, 40
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(37*i - 500)
	}
	mkX := func(row, lane, i int) fxp.Value {
		return fxp.Value((row+1)*(lane+3)*(i+7)%8191 - 4096)
	}
	for _, c := range []struct {
		rate   float64
		stored bool
	}{{0, false}, {0.004, false}, {0.1, false}, {0.5, false}, {0, true}, {0.1, true}, {0.5, true}} {
		rate := c.rate
		for _, k := range batchSizes {
			streams, shadow := batchStreams(0xB17C*uint64(k)+math.Float64bits(rate), k)
			b, err := NewBatchInjector(rate, nil, streams)
			if err != nil {
				t.Fatal(err)
			}
			got := runLaneRows(t, b, f, w, rows, mkX, c.stored)
			for l := 0; l < k; l++ {
				ref, err := NewInjector(rate, nil, shadow[l])
				if err != nil {
					t.Fatal(err)
				}
				x := make([]fxp.Value, n)
				for r := 0; r < rows; r++ {
					for i := range x {
						x[i] = mkX(r, l, i)
					}
					want := mulDot(ref, f, w, x)
					if got[r][l] != want {
						t.Fatalf("rate %v k=%d lane %d row %d: batch %d, scalar %d",
							rate, k, l, r, got[r][l], want)
					}
				}
				if bs, ss := b.Lane(l).Stats(), ref.Stats(); bs != ss {
					t.Fatalf("rate %v k=%d lane %d: stats diverge: batch %+v scalar %+v", rate, k, l, bs, ss)
				}
			}
		}
	}
}

// TestBatchInjectorSaturatingLanes repeats the bit-identity check with
// full-range activations that overflow the accumulator, forcing the
// planned scalar fallback path: saturation behavior must match the
// scalar injector exactly, and the lanes' (poisoned) stored sums must
// be ignored.
func TestBatchInjectorSaturatingLanes(t *testing.T) {
	f := fxp.DefaultFormat
	const n, rows, k = 16, 30, 7
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(math.MaxInt32 - i)
	}
	mkX := func(row, lane, i int) fxp.Value {
		v := fxp.Value(math.MaxInt32 - 17*(row+lane+i))
		if (row+lane+i)%3 == 0 {
			return -v
		}
		return v
	}
	for _, stored := range []bool{false, true} {
		streams, shadow := batchStreams(0x5A7, k)
		b, err := NewBatchInjector(0.1, nil, streams)
		if err != nil {
			t.Fatal(err)
		}
		got := runLaneRows(t, b, f, w, rows, mkX, stored)
		for l := 0; l < k; l++ {
			ref, err := NewInjector(0.1, nil, shadow[l])
			if err != nil {
				t.Fatal(err)
			}
			x := make([]fxp.Value, n)
			for r := 0; r < rows; r++ {
				for i := range x {
					x[i] = mkX(r, l, i)
				}
				want := mulDot(ref, f, w, x)
				if got[r][l] != want {
					t.Fatalf("stored=%v lane %d row %d: batch %d, scalar %d", stored, l, r, got[r][l], want)
				}
			}
		}
	}
}

// TestBatchInjectorLaneOrderInvariance is the property test that lane
// order never affects a lane's verdict: running the same lanes through
// packed positions permuted per row (via Batch.Lanes) produces the
// same per-lane outputs as the identity packing.
func TestBatchInjectorLaneOrderInvariance(t *testing.T) {
	f := fxp.DefaultFormat
	const n, rows, k = 33, 25, 7
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(91*i - 1400)
	}
	mkX := func(row, lane, i int) fxp.Value {
		return fxp.Value((row+2)*(lane+5)*(3*i+1)%8191 - 4095)
	}

	run := func(permute bool) [][]fxp.Value {
		streams, _ := batchStreams(0x0BDE, k)
		b, err := NewBatchInjector(0.1, nil, streams)
		if err != nil {
			t.Fatal(err)
		}
		perm := rand.New(rand.NewSource(99))
		stride := n
		out := make([][]fxp.Value, rows)
		for r := 0; r < rows; r++ {
			order := make([]int, k)
			for i := range order {
				order[i] = i
			}
			if permute {
				perm.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			xs := make([]fxp.Value, k*stride)
			maxAbs := make([]int64, k)
			for p, lane := range order {
				var m int64
				for i := 0; i < n; i++ {
					v := mkX(r, lane, i)
					xs[p*stride+i] = v
					if a := int64(v); a > m {
						m = a
					} else if -a > m {
						m = -a
					}
				}
				maxAbs[p] = m
			}
			bt := &fxp.Batch{Xs: xs, Stride: stride, Lanes: order, MaxAbs: maxAbs}
			packed := make([]fxp.Value, k)
			b.DotRowBatch(f, w, bt, packed)
			byLane := make([]fxp.Value, k)
			for p, lane := range order {
				byLane[lane] = packed[p]
			}
			out[r] = byLane
		}
		return out
	}

	straight := run(false)
	shuffled := run(true)
	for r := range straight {
		for l := range straight[r] {
			if straight[r][l] != shuffled[r][l] {
				t.Fatalf("row %d lane %d: identity packing %d, permuted packing %d",
					r, l, straight[r][l], shuffled[r][l])
			}
		}
	}
}

// TestBatchInjectorRaggedDropout checks that lanes dropping out of the
// batch (the ragged-tail case: a shorter program finishes early) leave
// the surviving lanes bit-identical to a run where the batch was full
// the whole time.
func TestBatchInjectorRaggedDropout(t *testing.T) {
	f := fxp.DefaultFormat
	const n, rows, k = 33, 30, 7
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(53*i - 800)
	}
	mkX := func(row, lane, i int) fxp.Value {
		return fxp.Value((row+3)*(lane+2)*(i+11)%8191 - 4095)
	}
	// laneRows[l] is how many rows lane l participates in.
	laneRows := []int{30, 30, 22, 19, 12, 5, 1}

	run := func(drop bool) map[int][]fxp.Value {
		streams, _ := batchStreams(0xDD07, k)
		b, err := NewBatchInjector(0.1, nil, streams)
		if err != nil {
			t.Fatal(err)
		}
		stride := n
		outs := make(map[int][]fxp.Value, k)
		for r := 0; r < rows; r++ {
			var active []int
			for l := 0; l < k; l++ {
				if !drop || r < laneRows[l] {
					active = append(active, l)
				}
			}
			xs := make([]fxp.Value, len(active)*stride)
			maxAbs := make([]int64, len(active))
			for p, lane := range active {
				var m int64
				for i := 0; i < n; i++ {
					v := mkX(r, lane, i)
					xs[p*stride+i] = v
					if a := int64(v); a > m {
						m = a
					} else if -a > m {
						m = -a
					}
				}
				maxAbs[p] = m
			}
			bt := &fxp.Batch{Xs: xs, Stride: stride, Lanes: active, MaxAbs: maxAbs}
			packed := make([]fxp.Value, len(active))
			b.DotRowBatch(f, w, bt, packed)
			for p, lane := range active {
				outs[lane] = append(outs[lane], packed[p])
			}
		}
		return outs
	}

	full := run(false)
	ragged := run(true)
	for l := 0; l < k; l++ {
		for r := 0; r < laneRows[l]; r++ {
			if full[l][r] != ragged[l][r] {
				t.Fatalf("lane %d row %d: full-batch %d, ragged %d", l, r, full[l][r], ragged[l][r])
			}
		}
	}
}

// TestBatchInjectorRecording pins per-lane DrawLog capture: a recorded
// batched span must produce exactly the log a scalar injector records
// over the same stream and mul sequence, and recording must not
// perturb the outputs.
func TestBatchInjectorRecording(t *testing.T) {
	f := fxp.DefaultFormat
	const n, rows, k = 33, 20, 4
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(29*i - 400)
	}
	mkX := func(row, lane, i int) fxp.Value {
		return fxp.Value((row+1)*(lane+1)*(i+13)%4096 - 2048)
	}
	streams, shadow := batchStreams(0x4EC, k)
	b, err := NewBatchInjector(0.1, nil, streams)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]DrawLog, k)
	for l := 0; l < k; l++ {
		b.Lane(l).StartRecord(&logs[l])
	}
	runLaneRows(t, b, f, w, rows, mkX, false)
	for l := 0; l < k; l++ {
		if b.Lane(l).StopRecord() != &logs[l] {
			t.Fatalf("lane %d: StopRecord returned wrong log", l)
		}
	}
	for l := 0; l < k; l++ {
		ref, err := NewInjector(0.1, nil, shadow[l])
		if err != nil {
			t.Fatal(err)
		}
		var want DrawLog
		ref.StartRecord(&want)
		x := make([]fxp.Value, n)
		for r := 0; r < rows; r++ {
			for i := range x {
				x[i] = mkX(r, l, i)
			}
			mulDot(ref, f, w, x)
		}
		ref.StopRecord()
		if logs[l].InitialGap != want.InitialGap {
			t.Fatalf("lane %d: initial gap %d, scalar %d", l, logs[l].InitialGap, want.InitialGap)
		}
		if len(logs[l].Gaps) != len(want.Gaps) || len(logs[l].Bits) != len(want.Bits) {
			t.Fatalf("lane %d: log shape (%d gaps, %d bits), scalar (%d, %d)",
				l, len(logs[l].Gaps), len(logs[l].Bits), len(want.Gaps), len(want.Bits))
		}
		for i := range want.Gaps {
			if logs[l].Gaps[i] != want.Gaps[i] {
				t.Fatalf("lane %d gap %d: %d vs scalar %d", l, i, logs[l].Gaps[i], want.Gaps[i])
			}
		}
		for i := range want.Bits {
			if logs[l].Bits[i] != want.Bits[i] {
				t.Fatalf("lane %d bit %d: %d vs scalar %d", l, i, logs[l].Bits[i], want.Bits[i])
			}
		}
	}
}

// TestBatchInjectorStatisticalEquivalence holds the batched sampler to
// the Bernoulli reference with the same 6-sigma binomial band the
// scalar skip-ahead sampler is held to, aggregated across lanes.
func TestBatchInjectorStatisticalEquivalence(t *testing.T) {
	f := fxp.DefaultFormat
	const n, k = 33, 16
	rows := 4000
	w := make([]fxp.Value, n)
	for i := range w {
		w[i] = fxp.Value(i + 1)
	}
	mkX := func(row, lane, i int) fxp.Value { return fxp.Value(2*i + 1) }
	for _, rate := range []float64{0.01, 0.1, 0.5} {
		streams, _ := batchStreams(0x6516+math.Float64bits(rate), k)
		b, err := NewBatchInjector(rate, nil, streams)
		if err != nil {
			t.Fatal(err)
		}
		runLaneRows(t, b, f, w, rows, mkX, false)
		c := b.Stats()
		muls := float64(uint64(n) * uint64(rows) * uint64(k))
		if c.Muls != uint64(muls) {
			t.Fatalf("rate %v: counted %d muls, want %d", rate, c.Muls, uint64(muls))
		}
		tol := 6 * math.Sqrt(rate*(1-rate)/muls)
		if got := c.Rate(); math.Abs(got-rate) > tol {
			t.Errorf("rate %v: batched observed rate %v outside ±%v", rate, got, tol)
		}
		// Per-bit mass: every flipped bit must respect the model
		// constraints, and the bump mass must dominate as in Fig 1.
		var inWindow, total uint64
		for bit, cnt := range c.PerBit {
			if cnt == 0 {
				continue
			}
			if bit < MinFaultBit || bit > MaxFaultBit {
				t.Fatalf("rate %v: fault at forbidden bit %d", rate, bit)
			}
			total += cnt
			if bit >= 8 && bit <= 24 {
				inWindow += cnt
			}
		}
		if total != c.Faults {
			t.Fatalf("rate %v: per-bit counts %d != faults %d", rate, total, c.Faults)
		}
		if frac := float64(inWindow) / float64(total); frac < 0.93 {
			t.Errorf("rate %v: low-bump mass %v, want > 0.93", rate, frac)
		}
	}
}

// TestBatchInjectorValidation covers constructor rejection paths.
func TestBatchInjectorValidation(t *testing.T) {
	streams, _ := batchStreams(1, 2)
	if _, err := NewBatchInjector(-0.1, nil, streams); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := NewBatchInjector(0.1, nil, nil); err == nil {
		t.Fatal("no lanes accepted")
	}
	if _, err := NewBatchInjector(0.1, nil, []rand.Source64{nil}); err == nil {
		t.Fatal("nil lane stream accepted")
	}
}
