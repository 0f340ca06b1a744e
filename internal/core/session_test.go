package core

import (
	"math"
	"sync"
	"testing"

	"shmd/internal/hmd"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

// detectOne runs one session cycle over a batch of one program.
func detectOne(sess *Session, windows []trace.WindowCounts) (hmd.Decision, error) {
	decs, _, err := sess.DetectBatch([][]trace.WindowCounts{windows}, false)
	if err != nil {
		return hmd.Decision{}, err
	}
	return decs[0], nil
}

func TestSessionProtocol(t *testing.T) {
	d, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	detectionDepth := s.Regulator().UndervoltMV()
	if detectionDepth <= 0 {
		t.Fatal("operating point not calibrated")
	}

	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	// Between detections the plane is nominal: the rest of the system
	// never sees undervolting-induced faults.
	if !sess.AtNominal() {
		t.Fatal("fresh session must sit at nominal voltage")
	}
	if s.ErrorRate() != 0 {
		t.Fatalf("injector rate outside detection = %v", s.ErrorRate())
	}

	p := d.Programs[0]
	dec, err := detectOne(sess, p.Windows)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Score < 0 || dec.Score > 1 {
		t.Errorf("score = %v", dec.Score)
	}
	// After the detection the voltage is restored.
	if !sess.AtNominal() {
		t.Error("voltage not restored after detection")
	}
	if s.ErrorRate() != 0 {
		t.Errorf("injector rate after detection = %v", s.ErrorRate())
	}

	// The detection itself really ran undervolted: repeated session
	// detections on a borderline input vary (stochastic), and the
	// calibrated depth was re-applied inside the cycle.
	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		dec, err := detectOne(sess, p.Windows)
		if err != nil {
			t.Fatal(err)
		}
		seen[dec.Score] = true
	}
	if len(seen) < 2 {
		t.Error("session detections never varied; undervolting not applied")
	}
}

func TestSessionNilDetector(t *testing.T) {
	if _, err := NewSession(nil); err == nil {
		t.Error("nil detector must be rejected")
	}
}

func TestSessionPreservesOperatingPoint(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	wantDepth := s.Regulator().UndervoltMV()
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	// Run a few cycles; the calibrated depth must be re-applied each
	// time, not drift.
	p, basep := fixtures(t)
	_ = basep
	for i := 0; i < 3; i++ {
		if _, err := detectOne(sess, p.Programs[2].Windows); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.enter(); err != nil {
		t.Fatal(err)
	}
	if got := s.Regulator().UndervoltMV(); math.Abs(got-wantDepth) > 1e-9 {
		t.Errorf("detection depth drifted: %v vs %v", got, wantDepth)
	}
	if err := sess.exit(); err != nil {
		t.Fatal(err)
	}
	if s.SupplyVoltage() != volt.NominalVoltage {
		t.Error("exit did not restore nominal")
	}
}

func TestSessionDoubleEnter(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.enter(); err != nil {
		t.Fatal(err)
	}
	if err := sess.enter(); err == nil {
		t.Error("double enter must be rejected")
	}
	if err := sess.exit(); err != nil {
		t.Fatal(err)
	}
}

// flakyPlane is a regulator whose ErrorRate reading can be made out of
// range for any non-zero depth, so the injector refuses the rate
// enter derives from it — the injector-side failure that used to leak
// an undervolted plane out of a half-completed enter.
type flakyPlane struct {
	*volt.Regulator
	failNonZero bool
}

func (f *flakyPlane) ErrorRate() float64 {
	if f.failNonZero && f.UndervoltMV() != 0 {
		return 2
	}
	return f.Regulator.ErrorRate()
}

// flakyFixture builds a detector at a 130 mV depth on a flakyPlane.
func flakyFixture(t *testing.T) (*StochasticHMD, *flakyPlane) {
	t.Helper()
	_, base := fixtures(t)
	reg, err := volt.NewRegulator(volt.PlaneCore, volt.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	plane := &flakyPlane{Regulator: reg}
	s, err := NewOnPlane(base, plane, Options{UndervoltMV: 130})
	if err != nil {
		t.Fatal(err)
	}
	return s, plane
}

func TestSessionEnterRollsBackOnInjectorFailure(t *testing.T) {
	s, plane := flakyFixture(t)
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	plane.failNonZero = true
	if _, err := detectOne(sess, nil); err == nil {
		t.Fatal("enter must fail when the injector rejects the rate")
	}
	// The plane must have been rolled back to nominal: a failed enter
	// may never leave the system undervolted with entered == false.
	if !sess.AtNominal() {
		t.Fatalf("partial enter leaked an undervolted plane: depth %v mV", plane.UndervoltMV())
	}
	if sess.entered {
		t.Error("entered flag set after failed enter")
	}
	// The session recovers once the plane reads a valid rate again.
	plane.failNonZero = false
	if err := sess.enter(); err != nil {
		t.Fatal(err)
	}
	if err := sess.exit(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionExitNeverWedges(t *testing.T) {
	s, reg := flakyFixture(t)
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.enter(); err != nil {
		t.Fatal(err)
	}
	// Unlock the regulator out from under the session so exit's
	// voltage restore fails, then relock: the protocol state must
	// have cleared anyway, and the next cycle must work.
	if err := reg.Unlock(Owner); err != nil {
		t.Fatal(err)
	}
	if err := reg.Lock("intruder"); err != nil {
		t.Fatal(err)
	}
	if err := sess.exit(); err == nil {
		t.Fatal("exit with a stolen lock must report the failure")
	}
	if sess.entered {
		t.Error("failed exit wedged the session")
	}
	if err := reg.Unlock("intruder"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Lock(Owner); err != nil {
		t.Fatal(err)
	}
	if err := sess.ForceNominal(); err != nil {
		t.Fatal(err)
	}
	if !sess.AtNominal() {
		t.Error("ForceNominal did not restore nominal")
	}
}

func TestSessionConcurrentDetections(t *testing.T) {
	d, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the session from many goroutines; run under -race this
	// verifies the enter/infer/exit protocol serializes correctly and
	// the entered flag is never corrupted.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		prog := d.Programs[g%len(d.Programs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				dec, err := detectOne(sess, prog.Windows)
				if err != nil {
					t.Error(err)
					return
				}
				if dec.Score < 0 || dec.Score > 1 {
					t.Errorf("score = %v", dec.Score)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !sess.AtNominal() {
		t.Error("voltage not nominal after concurrent detections")
	}
	if s.ErrorRate() != 0 {
		t.Errorf("injector rate after concurrent detections = %v", s.ErrorRate())
	}
}

func TestSessionRecalibrate(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	oldDepth := sess.Depth()
	// Hotter silicon: the same rate needs a shallower depth.
	if err := s.Regulator().SetTemperature(volt.ReferenceTempC + 30); err != nil {
		t.Fatal(err)
	}
	depth, err := sess.Recalibrate(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if depth >= oldDepth {
		t.Errorf("recalibrated depth %v not shallower than %v", depth, oldDepth)
	}
	if sess.Depth() != depth {
		t.Errorf("session depth %v != returned %v", sess.Depth(), depth)
	}
	if !sess.AtNominal() {
		t.Error("recalibration outside detection must leave the plane nominal")
	}
	// Unreachable rate propagates the calibration error.
	if _, err := sess.Recalibrate(math.NaN()); err == nil {
		t.Error("NaN rate must be rejected")
	}
}
