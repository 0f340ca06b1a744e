package faults

import (
	"fmt"
	"math"

	"shmd/internal/fxp"
)

// DrawLog is the complete stochastic record of one recorded span of
// injector activity: the gap that was already pending when recording
// started, every geometric gap drawn during the span, and every fault
// bit flipped. Together with the multiplication sequence (which is a
// pure function of the model and the input windows), a DrawLog
// determines the faulted products bit-for-bit — it is the provenance a
// decision trace stores so a verdict can be replayed off-hardware.
type DrawLog struct {
	// InitialGap is the injector's pending gap at StartRecord time:
	// -1 when no gap was drawn yet (the common case directly after a
	// rate change), otherwise the number of fault-free multiplications
	// remaining before the next fault site.
	InitialGap int64
	// Gaps lists every geometric gap drawn during the span, in draw
	// order: the lazy first draw (if any) followed by one post-fault
	// draw per fault.
	Gaps []int64
	// Bits lists the flipped product bit of every fault, in fault
	// order. len(Bits) == len(Gaps) or len(Gaps)-1 (the lazy draw has
	// no bit).
	Bits []uint8
}

// Clone deep-copies the log (the injector reuses the backing arrays of
// an attached log across recordings).
func (l DrawLog) Clone() DrawLog {
	c := DrawLog{InitialGap: l.InitialGap}
	if len(l.Gaps) > 0 {
		c.Gaps = append([]int64(nil), l.Gaps...)
	}
	if len(l.Bits) > 0 {
		c.Bits = append([]uint8(nil), l.Bits...)
	}
	return c
}

// Faults returns the number of faults in the log.
func (l DrawLog) Faults() int { return len(l.Bits) }

// Recordable is implemented by fault units whose stochastic draws can
// be captured into a DrawLog for later replay. Recording is purely
// observational: it never consumes or reorders RNG draws, so a
// recorded run is bit-identical to an unrecorded one.
type Recordable interface {
	// StartRecord attaches log, resetting its draw lists and capturing
	// the pending gap. Any previous recording stops.
	StartRecord(log *DrawLog)
	// StopRecord detaches and returns the attached log (nil when no
	// recording was active).
	StopRecord() *DrawLog
}

// StartRecord implements Recordable: subsequent draws append to log
// until StopRecord. The log's slices are truncated, not reallocated,
// so a caller can reuse one DrawLog across decisions.
func (in *Injector) StartRecord(log *DrawLog) {
	log.InitialGap = in.gap
	if log.InitialGap < -1 {
		// The never-configured sentinel (-2) and "not drawn yet" (-1)
		// replay identically; keep the serialized form canonical.
		log.InitialGap = -1
	}
	log.Gaps = log.Gaps[:0]
	log.Bits = log.Bits[:0]
	in.rec = log
}

// StopRecord implements Recordable.
func (in *Injector) StopRecord() *DrawLog {
	log := in.rec
	in.rec = nil
	return log
}

var _ Recordable = (*Injector)(nil)

// Replayer is an fxp.Unit that re-executes a recorded fault sequence:
// it consumes the gaps and bits of a DrawLog instead of drawing from
// an RNG, so running the same multiplication sequence through it
// reproduces the recorded products bit-for-bit — off-hardware, with no
// regulator and no random stream. It has no batch form: a forward pass
// runs it through fxp.AsBatch's one-lane adapter, one Mul per product
// in the pass's multiplication order, which is the order the recording
// injector's batch view drew the log in (pinned by the skip-ahead
// equivalence tests).
//
// After the replayed computation, Done reports whether the log was
// consumed exactly; a leftover or starved log means the replayed
// multiplication sequence differs from the recorded one (wrong model,
// wrong windows, or a corrupt trace).
type Replayer struct {
	gap     int64
	gaps    []int64
	bits    []uint8
	gi, bi  int
	muls    uint64
	faults  uint64
	starved bool
}

// NewReplayer builds a replaying unit over log. The log is read, not
// mutated; the caller may share it.
func NewReplayer(log DrawLog) *Replayer {
	return &Replayer{gap: log.InitialGap, gaps: log.Gaps, bits: log.Bits}
}

// nextGap pops the next recorded gap; an exhausted list means no
// further fault was recorded, so the rest of the span is fault-free.
func (r *Replayer) nextGap() int64 {
	if r.gi < len(r.gaps) {
		g := r.gaps[r.gi]
		r.gi++
		return g
	}
	return math.MaxInt64
}

// Mul replays one multiplication: exact product, with the recorded bit
// flipped when the recorded gap sequence lands a fault here.
func (r *Replayer) Mul(a, b fxp.Value) fxp.Product {
	p := fxp.Product(int64(a) * int64(b))
	r.muls++
	if r.gap < 0 {
		r.gap = r.nextGap()
	}
	if r.gap == 0 {
		if r.bi >= len(r.bits) {
			// A fault is due but the log has no bit for it: the log is
			// inconsistent. Flag it and stop faulting.
			r.starved = true
			r.gap = math.MaxInt64
			return p
		}
		bit := r.bits[r.bi]
		r.bi++
		r.faults++
		r.gap = r.nextGap()
		return p ^ fxp.Product(1)<<uint(bit)
	}
	r.gap--
	return p
}

// Muls returns the number of replayed multiplications.
func (r *Replayer) Muls() uint64 { return r.muls }

// Faults returns the number of replayed faults.
func (r *Replayer) Faults() uint64 { return r.faults }

// Done verifies the log was consumed exactly: every recorded gap and
// bit applied, no fault left hanging. A replay that scores the same
// windows through the same model as the recording always drains the
// log; anything else is a mismatch.
func (r *Replayer) Done() error {
	if r.starved {
		return fmt.Errorf("faults: replay log inconsistent: fault due at mul %d but bit draws exhausted", r.muls)
	}
	if r.gi != len(r.gaps) || r.bi != len(r.bits) {
		return fmt.Errorf("faults: replay log not drained: %d/%d gaps, %d/%d bits consumed (multiplication sequence differs from recording)",
			r.gi, len(r.gaps), r.bi, len(r.bits))
	}
	return nil
}

var _ fxp.Unit = (*Replayer)(nil)
