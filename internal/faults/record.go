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

// Faults returns the number of faults in the log.
func (l DrawLog) Faults() int { return len(l.Bits) }

// StartRecord attaches log, capturing the pending gap: subsequent
// draws append to it until StopRecord, and any previous recording
// stops. The log's slices are truncated, not reallocated, so a caller
// can reuse one DrawLog across decisions. Recording is purely
// observational: it never consumes or reorders RNG draws, so a
// recorded run is bit-identical to an unrecorded one.
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

// StopRecord detaches and returns the attached log (nil when no
// recording was active).
func (in *Injector) StopRecord() *DrawLog {
	log := in.rec
	in.rec = nil
	return log
}

// recordPlan appends a span plan drawn by the tabulated hot loop to
// the attached log, exactly as the per-draw path records it: each
// fault's bit, and the gap drawn after it — the distance to the next
// planned site, or, after the span's last fault, the untraversed tail
// of the span plus the leftover pending gap. n is the span's length;
// in.gap must already hold the leftover.
func (in *Injector) recordPlan(plan []spanFault, n int64) {
	for i, f := range plan {
		next := n + in.gap
		if i+1 < len(plan) {
			next = plan[i+1].site()
		}
		in.rec.Bits = append(in.rec.Bits, uint8(f.bit()))
		in.rec.Gaps = append(in.rec.Gaps, next-f.site()-1)
	}
}

// Replayer re-executes a recorded fault sequence: an fxp.BatchUnit
// and fxp.SpanPlanner on one unit lane whose BeginSpan turns the next
// part of a DrawLog into a span plan, instead of drawing one from an
// RNG, and whose rows run the same span consumer as the serving
// injector. Scoring the recorded windows through it therefore
// reproduces the recorded products bit-for-bit — off-hardware, with
// no regulator and no random stream — through the production kernel.
// Every packed position must be unit lane 0, so one pass scores
// consecutive windows of the one recorded stream.
//
// After the replayed computation, Done reports whether the log was
// consumed exactly; a leftover or starved log means the replayed
// multiplication sequence differs from the recorded one (wrong model,
// wrong windows, or a corrupt trace).
type Replayer struct {
	spanConsumer
	// gap is the pending gap: the fault-free multiplications left
	// before the next recorded fault, or -1 when the next gap is due
	// to be read from gaps.
	gap    int64
	gaps   []int64
	bits   []uint8
	gi, bi int
	// muls counts the multiplications planned so far; starvedAt is
	// the one at which a fault fell due with no bit left, -1 if none.
	muls      int64
	starvedAt int64
}

// NewReplayer builds a replaying unit over log. The log is read, not
// mutated; the caller may share it.
func NewReplayer(log DrawLog) *Replayer {
	return &Replayer{gap: log.InitialGap, gaps: log.Gaps, bits: log.Bits, starvedAt: -1}
}

// BeginSpan implements fxp.SpanPlanner over the log.
func (r *Replayer) BeginSpan(lanes []int, muls int) { r.beginSpan(r, lanes, muls) }

// DotRowBatch implements fxp.BatchUnit with the serving injector's
// span consumer.
func (r *Replayer) DotRowBatch(f fxp.Format, w []fxp.Value, bt *fxp.Batch, out []fxp.Value) {
	r.dotRowBatch(r, f, w, bt, out)
}

// planSpan is BatchInjector.planSpan's draw loop with every gap and
// bit read from the log: a gap due past the end of the gap list leaves
// the rest of the stream fault-free, and a fault due past the end of
// the bit list starves the log. Gaps are compared with the room left
// before they are added, so a decoded gap of any size cannot overflow.
func (r *Replayer) planSpan(l, muls int, entries []spanFault) []spanFault {
	if l != 0 {
		panic(fmt.Sprintf("faults: lane %d on a one-lane replayer", l))
	}
	n := int64(muls)
	for pos := int64(0); ; {
		if r.gap < 0 {
			r.gap = math.MaxInt64
			if r.gi < len(r.gaps) {
				r.gap = r.gaps[r.gi]
				r.gi++
			}
		}
		if r.gap >= n-pos {
			r.gap -= n - pos
			break
		}
		site := pos + r.gap
		if r.bi == len(r.bits) {
			r.starvedAt = r.muls + site
			r.gap = math.MaxInt64
			break
		}
		entries = append(entries, packFault(site, int(r.bits[r.bi])))
		r.bi++
		r.gap = -1
		pos = site + 1
	}
	r.muls += n
	return entries
}

// Done verifies the log was consumed exactly: every recorded gap and
// bit applied, no fault left hanging. A replay that scores the same
// windows through the same model as the recording always drains the
// log; anything else is a mismatch.
func (r *Replayer) Done() error {
	if r.starvedAt >= 0 {
		return fmt.Errorf("faults: replay log inconsistent: fault due at mul %d but bit draws exhausted", r.starvedAt)
	}
	if r.gi != len(r.gaps) || r.bi != len(r.bits) {
		return fmt.Errorf("faults: replay log not drained: %d/%d gaps, %d/%d bits consumed (multiplication sequence differs from recording)",
			r.gi, len(r.gaps), r.bi, len(r.bits))
	}
	return nil
}

var _ fxp.BatchUnit = (*Replayer)(nil)
var _ fxp.SpanPlanner = (*Replayer)(nil)
