package replay

import (
	"fmt"
	"math"
	"testing"

	"shmd/internal/chaos"
	"shmd/internal/core"
	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

// supervised builds a supervisor around a Stochastic-HMD at rate 0.3 on
// seed: on ideal hardware (core.New), or with chaos set on a chaos.Env
// plane whose rules stay unarmed.
func supervised(t *testing.T, h *hmd.HMD, seed uint64, withChaos bool) *core.Supervisor {
	t.Helper()
	opts := core.Options{ErrorRate: 0.3, Seed: seed}
	var s *core.StochasticHMD
	var err error
	if withChaos {
		reg, rerr := volt.NewRegulator(volt.PlaneCore, volt.NewDeviceProfile(0))
		if rerr != nil {
			t.Fatal(rerr)
		}
		env, cerr := chaos.NewEnv(reg, chaos.Config{Seed: seed})
		if cerr != nil {
			t.Fatal(cerr)
		}
		s, err = core.NewOnPlane(h.WithFreshBuffers(), env, opts)
	} else {
		s, err = core.New(h.WithFreshBuffers(), opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	sup, err := core.NewSupervisor(s, core.SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

// TestVerifyStochasticHMDDecision is the cross-layer contract: the
// decisions a supervised Stochastic-HMD serves — batches of one and of
// four, with their draw logs recorded as the serving layer records
// them — are packaged as trace records and must verify bit-identically
// through the off-hardware replay path, on ideal hardware and on a
// chaos plane alike.
func TestVerifyStochasticHMDDecision(t *testing.T) {
	h := testModel(t)
	for _, withChaos := range []bool{false, true} {
		sup := supervised(t, h, 5, withChaos)
		r := rng.NewRand(41)
		for i := 0; i < 10; i++ {
			traces := make([][]trace.WindowCounts, 1+3*(i%2))
			for j := range traces {
				traces[j] = synthWindows(r, 1+(i+j)%4)
			}
			verdicts, logs, err := sup.DetectBatch(traces, true)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range verdicts {
				if v.Unprotected {
					t.Fatalf("chaos=%v batch %d lane %d: degraded on an unarmed plane", withChaos, i, j)
				}
				rec := Record{
					Seed:       5,
					Rate:       sup.TargetRate(),
					DepthMV:    sup.Session().Depth(),
					Threshold:  h.Config().Threshold,
					Malware:    v.Malware,
					Score:      v.Score,
					Confidence: testConfidence(v.Score, h.Config().Threshold, v.Malware),
					Draws:      logs[j],
					Windows:    traces[j],
				}
				if err := Verify(h, rec, testConfidence); err != nil {
					t.Fatalf("chaos=%v batch %d lane %d: %v", withChaos, i, j, err)
				}
			}
		}
	}
}

// TestChaosPlaneDrawsMatchIdeal: the plane is the only hardware a
// detector takes, so over an unarmed chaos.Env a detector draws exactly
// what an ideal-hardware detector of the same seed draws — the same
// verdict bits and the same draw logs, lane for lane.
func TestChaosPlaneDrawsMatchIdeal(t *testing.T) {
	h := testModel(t)
	ideal, onPlane := supervised(t, h, 7, false), supervised(t, h, 7, true)
	r := rng.NewRand(43)
	for i := 0; i < 6; i++ {
		traces := make([][]trace.WindowCounts, 1+i%4)
		for j := range traces {
			traces[j] = synthWindows(r, 2+j%3)
		}
		want, wantLogs, err := ideal.DetectBatch(traces, true)
		if err != nil {
			t.Fatal(err)
		}
		got, gotLogs, err := onPlane.DetectBatch(traces, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := range traces {
			what := fmt.Sprintf("batch %d lane %d", i, j)
			if got[j].Malware != want[j].Malware || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("%s: chaos plane %+v, ideal %+v", what, got[j], want[j])
			}
			sameLog(t, what, gotLogs[j], wantLogs[j])
		}
	}
}

// sameLog requires two draw logs to be equal entry for entry.
func sameLog(t *testing.T, what string, got, want faults.DrawLog) {
	t.Helper()
	if got.InitialGap != want.InitialGap || len(got.Gaps) != len(want.Gaps) || len(got.Bits) != len(want.Bits) {
		t.Fatalf("%s: draw log (initial %d, %d gaps, %d bits), want (initial %d, %d gaps, %d bits)",
			what, got.InitialGap, len(got.Gaps), len(got.Bits), want.InitialGap, len(want.Gaps), len(want.Bits))
	}
	for i := range got.Gaps {
		if got.Gaps[i] != want.Gaps[i] {
			t.Fatalf("%s: gap %d = %d, want %d", what, i, got.Gaps[i], want.Gaps[i])
		}
	}
	for i := range got.Bits {
		if got.Bits[i] != want.Bits[i] {
			t.Fatalf("%s: bit %d = %d, want %d", what, i, got.Bits[i], want.Bits[i])
		}
	}
}
