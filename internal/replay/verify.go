package replay

import (
	"fmt"
	"math"

	"shmd/internal/faults"
	"shmd/internal/hmd"
)

// ConfidenceFunc recomputes a decision confidence from a score; the
// serving layer passes its own mapping so replay reproduces served
// confidences without importing the server.
type ConfidenceFunc func(score, threshold float64, malware bool) float64

// Replay re-executes a recorded decision off-hardware: the record's
// windows are scored through base with a faults.Replayer, which turns
// the recorded draw log into span plans instead of drawing from an RNG
// and runs them through the same span consumer and MAC kernels as the
// serving injector. It returns the reproduced decision and confidence.
// A log the replayed multiplications do not consume exactly — starved
// of fault bits, or left undrained — is an error. The model must match the one
// that produced the trace (threshold is checked bit-exactly; a wrong
// model also surfaces as an undrained draw log or a verdict mismatch
// in Verify).
func Replay(base *hmd.HMD, rec Record, conf ConfidenceFunc) (hmd.Decision, float64, error) {
	cfg := base.Config()
	if math.Float64bits(cfg.Threshold) != math.Float64bits(rec.Threshold) {
		return hmd.Decision{}, 0, fmt.Errorf("replay: model threshold %v != recorded %v", cfg.Threshold, rec.Threshold)
	}
	if len(rec.Windows) < cfg.Period {
		return hmd.Decision{}, 0, fmt.Errorf("replay: %d windows shorter than detection period %d", len(rec.Windows), cfg.Period)
	}
	if rec.Unprotected && rec.Draws.Faults() != 0 {
		return hmd.Decision{}, 0, fmt.Errorf("replay: unprotected decision carries %d fault draws", rec.Draws.Faults())
	}
	// One replay path covers both serve modes: an unprotected
	// (exact-unit) decision records an empty draw log, and an empty log
	// makes the replayer exact. The windows run as lanes of one pass
	// per 64, in the order the recording injector's span planner drew
	// the log.
	rep := faults.NewReplayer(rec.Draws)
	det := base.WithFreshBuffers()
	dec := det.DecideFromScores(det.ScoreWindowsUnit(rep, rec.Windows))
	if err := rep.Done(); err != nil {
		return dec, 0, fmt.Errorf("replay: %w", err)
	}
	c := conf(dec.Score, cfg.Threshold, dec.Malware)
	return dec, c, nil
}

// Verify replays rec and checks the reproduced verdict, score, and
// confidence against the recorded ones bit-for-bit. nil means the
// trace is faithful to what the detector actually decided.
func Verify(base *hmd.HMD, rec Record, conf ConfidenceFunc) error {
	dec, c, err := Replay(base, rec, conf)
	if err != nil {
		return err
	}
	if dec.Malware != rec.Malware {
		return fmt.Errorf("replay: verdict mismatch: replayed malware=%v, recorded %v (score %v vs %v)",
			dec.Malware, rec.Malware, dec.Score, rec.Score)
	}
	if math.Float64bits(dec.Score) != math.Float64bits(rec.Score) {
		return fmt.Errorf("replay: score mismatch: replayed %v (%#x), recorded %v (%#x)",
			dec.Score, math.Float64bits(dec.Score), rec.Score, math.Float64bits(rec.Score))
	}
	if math.Float64bits(c) != math.Float64bits(rec.Confidence) {
		return fmt.Errorf("replay: confidence mismatch: replayed %v, recorded %v", c, rec.Confidence)
	}
	return nil
}
