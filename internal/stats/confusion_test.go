package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConfusionRecord(t *testing.T) {
	var c Confusion
	c.Record(true, true)   // TP
	c.Record(true, false)  // FP
	c.Record(false, true)  // FN
	c.Record(false, false) // TN
	c.Record(true, true)   // TP

	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Total() != 5 {
		t.Errorf("Total = %d, want 5", c.Total())
	}
	if got := c.Accuracy(); !almostEqual(got, 3.0/5.0, 1e-12) {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.FPR(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("FPR = %v", got)
	}
	if got := c.FNR(); !almostEqual(got, 1.0/3.0, 1e-12) {
		t.Errorf("FNR = %v", got)
	}
}

func TestConfusionEmptyRates(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.FPR() != 0 || c.FNR() != 0 {
		t.Error("all rates of an empty confusion matrix must be 0")
	}
}

func TestConfusionString(t *testing.T) {
	c := Confusion{TP: 1, TN: 1}
	s := c.String()
	if !strings.Contains(s, "acc=1.0000") {
		t.Errorf("String = %q", s)
	}
}

// Property: accuracy is the convex combination of the per-class hit
// rates 1-FNR and 1-FPR, weighted by class sizes.
func TestConfusionRateIdentities(t *testing.T) {
	f := func(tp, tn, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), TN: int(tn), FP: int(fp), FN: int(fn)}
		pos := c.TP + c.FN
		neg := c.TN + c.FP
		if pos+neg > 0 {
			want := ((1-c.FNR())*float64(pos) + (1-c.FPR())*float64(neg)) / float64(pos+neg)
			if !almostEqual(c.Accuracy(), want, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
