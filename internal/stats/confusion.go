package stats

import "fmt"

// Confusion is a binary-classification confusion matrix for the
// malware-detection setting. The positive class is "malware", matching
// the paper's FPR/FNR definitions:
//
//	FPR = benign programs flagged as malware / all benign programs
//	FNR = malware programs labelled benign  / all malware programs
type Confusion struct {
	TP, TN, FP, FN int
}

// Record adds one prediction. predicted/actual are true for malware.
func (c *Confusion) Record(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded predictions.
func (c Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns the fraction of correct predictions, 0 when empty.
func (c Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// FPR returns the false-positive rate, 0 when there are no negatives.
func (c Confusion) FPR() float64 {
	neg := c.FP + c.TN
	if neg == 0 {
		return 0
	}
	return float64(c.FP) / float64(neg)
}

// FNR returns the false-negative rate, 0 when there are no positives.
func (c Confusion) FNR() float64 {
	pos := c.TP + c.FN
	if pos == 0 {
		return 0
	}
	return float64(c.FN) / float64(pos)
}

// String renders the matrix and headline rates on one line.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d TN=%d FP=%d FN=%d acc=%.4f fpr=%.4f fnr=%.4f",
		c.TP, c.TN, c.FP, c.FN, c.Accuracy(), c.FPR(), c.FNR())
}
