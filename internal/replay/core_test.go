package replay

import (
	"testing"

	"shmd/internal/core"
	"shmd/internal/rng"
	"shmd/internal/volt"
)

// TestVerifyStochasticHMDDecision is the cross-layer contract: a
// decision made by a full Stochastic-HMD (regulator + injector) is
// packaged as a trace record and must verify bit-identically through
// the off-hardware replay path.
func TestVerifyStochasticHMDDecision(t *testing.T) {
	h := testModel(t)
	s, err := core.New(h, core.Options{ErrorRate: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewRand(41)
	for i := 0; i < 10; i++ {
		windows := synthWindows(r, 1+i%4)
		dec, log := s.DetectProgramTraced(windows)
		rec := Record{
			Seed:       5,
			Rate:       s.ErrorRate(),
			DepthMV:    volt.DepthAtVoltage(s.SupplyVoltage()),
			Threshold:  h.Config().Threshold,
			Malware:    dec.Malware,
			Score:      dec.Score,
			Confidence: testConfidence(dec.Score, h.Config().Threshold, dec.Malware),
			Draws:      log,
			Windows:    windows,
		}
		if err := Verify(h, rec, testConfidence); err != nil {
			t.Fatalf("decision %d: %v", i, err)
		}
	}
}
