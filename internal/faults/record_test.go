package faults

import (
	"testing"

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

// TestReplayerReproducesScalar replays a recorded scalar Mul sequence
// and checks every product bit-identically, then verifies the log
// drains exactly.
func TestReplayerReproducesScalar(t *testing.T) {
	for _, rate := range recordRates {
		inj, err := NewInjector(rate, nil, rng.NewRand(11, uint64(rate*1000)))
		if err != nil {
			t.Fatal(err)
		}
		const muls = 20000
		var log DrawLog
		inj.StartRecord(&log)
		products := make([]fxp.Product, muls)
		for i := range products {
			products[i] = inj.Mul(fxp.Value(i*17-999), fxp.Value(3*i+1))
		}
		inj.StopRecord()

		rep := NewReplayer(log)
		for i := range products {
			got := rep.Mul(fxp.Value(i*17-999), fxp.Value(3*i+1))
			if got != products[i] {
				t.Fatalf("rate %v mul %d: replayed %d, recorded %d", rate, i, got, products[i])
			}
		}
		if err := rep.Done(); err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if rep.Faults() != inj.Stats().Faults {
			t.Fatalf("rate %v: replayed %d faults, recorded %d", rate, rep.Faults(), inj.Stats().Faults)
		}
	}
}

// TestReplayerReproducesBulk records through the injector's batch form
// and replays through scalar Mul calls: the replayed row sums must
// match bit-identically (the scalar/batch bit-identity of the injector
// carries over to the replayer by construction).
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
		inj, err := NewInjector(rate, nil, rng.NewRand(17, uint64(rate*1000)))
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

		rep := NewReplayer(log)
		for i := range sums {
			got := mulDot(rep, f, w, x)
			if got != sums[i] {
				t.Fatalf("rate %v row %d: replayed %d, recorded %d", rate, i, got, sums[i])
			}
		}
		if err := rep.Done(); err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
	}
}

// TestReplayerDetectsMismatch drives a replayer with a different
// multiplication count than the recording; Done must report the
// mismatch rather than silently accepting it.
func TestReplayerDetectsMismatch(t *testing.T) {
	inj, err := NewInjector(0.1, nil, rng.NewRand(19))
	if err != nil {
		t.Fatal(err)
	}
	var log DrawLog
	inj.StartRecord(&log)
	for i := 0; i < 5000; i++ {
		inj.Mul(fxp.Value(i), fxp.Value(i+1))
	}
	inj.StopRecord()
	if len(log.Bits) == 0 {
		t.Fatal("no faults recorded; test needs a faulting run")
	}

	rep := NewReplayer(log)
	for i := 0; i < 10; i++ { // far fewer muls than recorded
		rep.Mul(fxp.Value(i), fxp.Value(i+1))
	}
	if err := rep.Done(); err == nil {
		t.Error("short replay drained the log; want mismatch error")
	}

	// A starved log: gaps promise a fault the bit list cannot honour.
	bad := DrawLog{InitialGap: -1, Gaps: []int64{0, 0}, Bits: []uint8{14}}
	rep = NewReplayer(bad)
	for i := 0; i < 4; i++ {
		rep.Mul(1, 1)
	}
	if err := rep.Done(); err == nil {
		t.Error("starved log replayed clean; want inconsistency error")
	}
}

// TestReplayerZeroFaultLog replays an empty log (a nominal-voltage or
// degraded decision): every product must be exact.
func TestReplayerZeroFaultLog(t *testing.T) {
	rep := NewReplayer(DrawLog{InitialGap: -1})
	for i := 0; i < 100; i++ {
		a, b := fxp.Value(i*7-50), fxp.Value(i+3)
		if got, want := rep.Mul(a, b), (fxp.Exact{}).Mul(a, b); got != want {
			t.Fatalf("mul %d: %d != exact %d", i, got, want)
		}
	}
	if err := rep.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDrawLogClone checks Clone is a deep copy.
func TestDrawLogClone(t *testing.T) {
	l := DrawLog{InitialGap: 3, Gaps: []int64{1, 2}, Bits: []uint8{14}}
	c := l.Clone()
	c.Gaps[0] = 99
	c.Bits[0] = 62
	if l.Gaps[0] != 1 || l.Bits[0] != 14 {
		t.Fatalf("clone aliases original: %+v", l)
	}
}

// TestRecordingAcrossSetRate checks StartRecord captures a pending gap
// so a recording that begins mid-stream still replays exactly.
func TestRecordingAcrossSetRate(t *testing.T) {
	inj, err := NewInjector(0.2, nil, rng.NewRand(23))
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
	products := make([]fxp.Product, 3000)
	for i := range products {
		products[i] = inj.Mul(fxp.Value(i), fxp.Value(i-7))
	}
	inj.StopRecord()

	rep := NewReplayer(log)
	for i := range products {
		if got := rep.Mul(fxp.Value(i), fxp.Value(i-7)); got != products[i] {
			t.Fatalf("mul %d: replayed %d, recorded %d", i, got, products[i])
		}
	}
	if err := rep.Done(); err != nil {
		t.Fatal(err)
	}
}
