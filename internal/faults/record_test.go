package faults

import (
	"strings"
	"testing"

	"shmd/internal/fann"
	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// recordRates covers the gap-table sampler (>= 1/128), the
// log-inversion sampler (below it), and the degenerate always-fault
// rate.
var recordRates = []float64{0.004, 0.05, 0.1, 0.5, 1.0}

// TestRecordingIsObservational pins the core invariant of the replay
// subsystem: attaching a DrawLog changes nothing about the injector's
// output — products, counters, and RNG stream all match an unrecorded
// twin draw for draw.
func TestRecordingIsObservational(t *testing.T) {
	for _, rate := range recordRates {
		plain, err := NewInjector(rate, nil, rng.NewRand(7, uint64(rate*1000)))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewInjector(rate, nil, rng.NewRand(7, uint64(rate*1000)))
		if err != nil {
			t.Fatal(err)
		}
		var log DrawLog
		rec.StartRecord(&log)
		for i := 0; i < 20000; i++ {
			a, b := fxp.Value(i*31-500), fxp.Value(997-i)
			pp, rp := plain.Mul(a, b), rec.Mul(a, b)
			if pp != rp {
				t.Fatalf("rate %v mul %d: recorded product %d != plain %d", rate, i, rp, pp)
			}
		}
		if got := rec.StopRecord(); got != &log {
			t.Fatalf("rate %v: StopRecord returned %p, want %p", rate, got, &log)
		}
		if plain.Stats() != rec.Stats() {
			t.Fatalf("rate %v: counters diverged: %+v vs %+v", rate, rec.Stats(), plain.Stats())
		}
		if uint64(len(log.Bits)) != rec.Stats().Faults {
			t.Fatalf("rate %v: log has %d bits, injector faulted %d times", rate, len(log.Bits), rec.Stats().Faults)
		}
		if len(log.Gaps) != len(log.Bits) && len(log.Gaps) != len(log.Bits)+1 {
			t.Fatalf("rate %v: %d gaps vs %d bits", rate, len(log.Gaps), len(log.Bits))
		}
	}
}

// replayRows replays rows of w·x through rep's batch form: as one
// announced span of rows windows on unit lane 0 with magnitude bounds
// (the blocked fast path), or row by row unannounced and unbounded
// (one-row spans through the checked walk).
func replayRows(rep *Replayer, f fxp.Format, w, x []fxp.Value, rows int, span bool) []fxp.Value {
	if !span {
		out := make([]fxp.Value, rows)
		for i := range out {
			out[i] = rowDot(rep, f, w, x)
		}
		return out
	}
	n := len(w)
	xs := make([]fxp.Value, rows*n)
	maxAbs := make([]int64, rows)
	var m int64
	for _, v := range x {
		m = max(m, int64(v), -int64(v))
	}
	for i := 0; i < rows; i++ {
		copy(xs[i*n:], x)
		maxAbs[i] = m
	}
	lanes := make([]int, rows)
	rep.BeginSpan(lanes, n)
	out := make([]fxp.Value, rows)
	rep.DotRowBatch(f, w, &fxp.Batch{Xs: xs, Stride: n, Lanes: lanes, MaxAbs: maxAbs}, out)
	return out
}

// TestReplayerReproducesScalar records rows walked one Mul per product
// and replays them through the replayer's batch form, announced and
// unannounced: every row sum must match bit-identically and the log
// must drain exactly.
func TestReplayerReproducesScalar(t *testing.T) {
	const rows, width = 200, 96
	f := fxp.DefaultFormat
	r := rng.NewRand(13)
	w := make([]fxp.Value, width)
	x := make([]fxp.Value, width)
	for i := range w {
		w[i] = fxp.Value(r.Intn(8192) - 4096)
		x[i] = fxp.Value(r.Intn(8192) - 4096)
	}
	for _, rate := range recordRates {
		inj, err := NewInjector(rate, nil, rng.NewRand(11, uint64(rate*1000)))
		if err != nil {
			t.Fatal(err)
		}
		var log DrawLog
		inj.StartRecord(&log)
		sums := make([]fxp.Value, rows)
		for i := range sums {
			sums[i] = mulDot(inj, f, w, x)
		}
		inj.StopRecord()

		for _, span := range []bool{false, true} {
			rep := NewReplayer(log)
			for i, got := range replayRows(rep, f, w, x, rows, span) {
				if got != sums[i] {
					t.Fatalf("rate %v span %v row %d: replayed %d, recorded %d", rate, span, i, got, sums[i])
				}
			}
			if err := rep.Done(); err != nil {
				t.Fatalf("rate %v span %v: %v", rate, span, err)
			}
		}
	}
}

// TestReplayerReproducesBulk records rows through the injector's batch
// form on a production source — the span planner's tabulated hot loop
// records from the plan there — and replays them through the
// replayer's: the row sums must match bit-identically.
func TestReplayerReproducesBulk(t *testing.T) {
	const rows, width = 200, 96
	f := fxp.DefaultFormat
	r := rng.NewRand(13)
	w := make([]fxp.Value, width)
	x := make([]fxp.Value, width)
	for i := range w {
		w[i] = fxp.Value(r.Intn(8192) - 4096)
		x[i] = fxp.Value(r.Intn(8192) - 4096)
	}
	for _, rate := range recordRates {
		inj, err := NewInjectorSource(rate, nil, rng.NewSource64(17, uint64(rate*1000)))
		if err != nil {
			t.Fatal(err)
		}
		var log DrawLog
		inj.StartRecord(&log)
		sums := make([]fxp.Value, rows)
		for i := range sums {
			sums[i] = rowDot(inj, f, w, x)
		}
		inj.StopRecord()

		for _, span := range []bool{false, true} {
			rep := NewReplayer(log)
			for i, got := range replayRows(rep, f, w, x, rows, span) {
				if got != sums[i] {
					t.Fatalf("rate %v span %v row %d: replayed %d, recorded %d", rate, span, i, got, sums[i])
				}
			}
			if err := rep.Done(); err != nil {
				t.Fatalf("rate %v span %v: %v", rate, span, err)
			}
		}
	}
}

// passNet is a small fixed-point network for forward-pass replay.
func passNet(t *testing.T) (*fann.FixedNetwork, [][]float64) {
	t.Helper()
	net, err := fann.New(fann.Config{Layers: []int{12, 6, 1}, Hidden: fann.SigmoidSymmetric, Output: fann.Sigmoid, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := net.ToFixed(fxp.DefaultFormat)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewRand(29)
	inputs := make([][]float64, 40)
	for i := range inputs {
		inputs[i] = make([]float64, 12)
		for j := range inputs[i] {
			inputs[i][j] = r.Float64()*2 - 1
		}
	}
	return fn, inputs
}

// TestReplayerDetectsMismatch replays forward passes over a different
// multiplication count than the recording, and a log whose gaps
// promise a fault its bits cannot honour; Done must report each
// mismatch rather than silently accepting it.
func TestReplayerDetectsMismatch(t *testing.T) {
	fn, inputs := passNet(t)
	inj, err := NewInjectorSource(0.1, nil, rng.NewSource64(19))
	if err != nil {
		t.Fatal(err)
	}
	var log DrawLog
	inj.StartRecord(&log)
	fn.RunBatch(inj, inputs, make([]int, len(inputs)), nil)
	inj.StopRecord()
	if len(log.Bits) == 0 {
		t.Fatal("no faults recorded; test needs a faulting run")
	}
	rep := NewReplayer(log)
	fn.RunBatch(rep, inputs, make([]int, len(inputs)), nil)
	if err := rep.Done(); err != nil {
		t.Fatalf("faithful replay: %v", err)
	}

	for _, n := range []int{1, len(inputs) - 1} { // fewer passes than recorded
		rep := NewReplayer(log)
		fn.RunBatch(rep, inputs[:n], make([]int, n), nil)
		if err := rep.Done(); err == nil {
			t.Errorf("replay of %d of %d passes drained the log; want mismatch error", n, len(inputs))
		}
	}
	longer := append(append([][]float64(nil), inputs...), inputs...)
	rep = NewReplayer(log)
	fn.RunBatch(rep, longer, make([]int, len(longer)), nil)
	if err := rep.Done(); err == nil {
		t.Error("replay of twice the recorded passes passed; want inconsistency error")
	}

	// A starved log: gaps promise a fault the bit list cannot honour.
	bad := DrawLog{InitialGap: -1, Gaps: []int64{0, 0}, Bits: []uint8{14}}
	rep = NewReplayer(bad)
	fn.RunBatch(rep, inputs[:1], nil, nil)
	if err := rep.Done(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("starved log: Done = %v, want an inconsistency error", err)
	}
}

// TestReplayerZeroFaultLog replays an empty log (a nominal-voltage or
// degraded decision) through forward passes: every output must be
// exact.
func TestReplayerZeroFaultLog(t *testing.T) {
	fn, inputs := passNet(t)
	rep := NewReplayer(DrawLog{InitialGap: -1})
	got := append([]float64(nil), fn.RunBatch(rep, inputs, make([]int, len(inputs)), nil)...)
	want := fn.RunBatch(fxp.Exact{}, inputs, nil, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pass %d: %v != exact %v", i, got[i], want[i])
		}
	}
	if err := rep.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordingAcrossSetRate checks StartRecord captures a pending gap
// so a recording that begins mid-stream still replays exactly.
func TestRecordingAcrossSetRate(t *testing.T) {
	const rows, width = 100, 30
	f := fxp.DefaultFormat
	w := make([]fxp.Value, width)
	x := make([]fxp.Value, width)
	for i := range w {
		w[i] = fxp.Value(i*37 - 500)
		x[i] = fxp.Value(900 - i*41)
	}
	for _, fast := range []bool{false, true} {
		var inj *Injector
		var err error
		if fast {
			inj, err = NewInjectorSource(0.2, nil, rng.NewSource64(23))
		} else {
			inj, err = NewInjector(0.2, nil, rng.NewRand(23))
		}
		if err != nil {
			t.Fatal(err)
		}
		// Consume some stream so a gap is pending, then record a span.
		for i := 0; i < 137; i++ {
			inj.Mul(5, 9)
		}
		var log DrawLog
		inj.StartRecord(&log)
		if log.InitialGap < 0 {
			t.Fatalf("pending gap not captured: %d", log.InitialGap)
		}
		sums := make([]fxp.Value, rows)
		for i := range sums {
			sums[i] = rowDot(inj, f, w, x)
		}
		inj.StopRecord()

		rep := NewReplayer(log)
		for i, got := range replayRows(rep, f, w, x, rows, true) {
			if got != sums[i] {
				t.Fatalf("fast %v row %d: replayed %d, recorded %d", fast, i, got, sums[i])
			}
		}
		if err := rep.Done(); err != nil {
			t.Fatalf("fast %v: %v", fast, err)
		}
	}
}
