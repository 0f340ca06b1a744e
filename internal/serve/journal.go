package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"shmd/internal/journal"
	"shmd/internal/volt"
)

// DefaultJournalMaxAge is how old a journal entry may be before it is
// treated as stale and recalibrated (silicon aging and seasonal
// ambient shifts move the curve on week scales, not request scales).
const DefaultJournalMaxAge = 30 * 24 * time.Hour

// journalVerifyMuls is the canary probe length used to verify a
// journaled depth at boot. At the paper's operating rates the binomial
// noise over this many multiplications sits far inside the supervisor
// tolerance band, so a passing probe is statistically meaningful.
const journalVerifyMuls = 4096

// journalStore is the pool's cache over the on-disk calibration
// journal: entries keyed by (device fingerprint, rate), rewritten
// atomically through journal.Save on every record.
type journalStore struct {
	mu      sync.Mutex
	path    string
	maxAge  time.Duration
	logf    func(format string, args ...any)
	entries map[string]journal.Entry
}

// journalKey keys entries by device and requested rate.
func journalKey(device string, rate float64) string {
	return fmt.Sprintf("%s|%.9g", device, rate)
}

// newJournalStore loads the journal at path. A missing file is a cold
// start; a corrupt or unreadable one is logged and discarded — the
// pool recalibrates every slot and the next record regenerates a valid
// file. Journals are never trusted over their own checksum.
func newJournalStore(path string, maxAge time.Duration, logf func(string, ...any)) *journalStore {
	if maxAge == 0 {
		maxAge = DefaultJournalMaxAge
	}
	js := &journalStore{path: path, maxAge: maxAge, logf: logf, entries: map[string]journal.Entry{}}
	entries, err := journal.Load(path)
	switch {
	case err == nil:
		for _, e := range entries {
			js.entries[journalKey(e.Device, e.Rate)] = e
		}
	case errors.Is(err, fs.ErrNotExist):
		// Cold start: nothing journaled yet.
	default:
		logf("serve: calibration journal %s rejected: %v (recalibrating from scratch)", path, err)
	}
	return js
}

// lookup returns a fresh journal entry for (device, rate), or nil on
// miss or staleness. Stale entries are dropped (and logged) so the
// recalibration that follows rewrites them.
func (js *journalStore) lookup(device string, rate float64) *journal.Entry {
	js.mu.Lock()
	defer js.mu.Unlock()
	e, ok := js.entries[journalKey(device, rate)]
	if !ok {
		return nil
	}
	if js.maxAge > 0 && time.Since(time.Unix(e.SavedUnix, 0)) > js.maxAge {
		js.logf("serve: journal entry for device %s rate %g is stale (saved %s); recalibrating",
			device, rate, time.Unix(e.SavedUnix, 0).Format(time.RFC3339))
		delete(js.entries, journalKey(device, rate))
		return nil
	}
	return &e
}

// record stores an entry and rewrites the journal file atomically.
func (js *journalStore) record(e journal.Entry) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.entries[journalKey(e.Device, e.Rate)] = e
	js.saveLocked()
}

// drop removes an entry (an unusable depth) and rewrites the file.
func (js *journalStore) drop(e journal.Entry) {
	js.mu.Lock()
	defer js.mu.Unlock()
	delete(js.entries, journalKey(e.Device, e.Rate))
	js.saveLocked()
}

// saveLocked writes the current entry set through journal.Save.
// Callers hold js.mu. Persistence failures are logged, not fatal: the
// journal is an accelerator, never a correctness dependency.
func (js *journalStore) saveLocked() {
	entries := make([]journal.Entry, 0, len(js.entries))
	for _, e := range js.entries {
		entries = append(entries, e)
	}
	if err := journal.Save(js.path, entries); err != nil {
		js.logf("serve: calibration journal write failed: %v", err)
	}
}

// journalLookup resolves a journal entry for this pool's operating
// point, or nil when journaling is off, the operating point is not
// rate-targeted, or the journal has no fresh entry.
func (p *Pool) journalLookup(profile volt.DeviceProfile, rate float64) *journal.Entry {
	if p.journal == nil || rate <= 0 {
		return nil
	}
	return p.journal.lookup(journal.DeviceKey(profile), rate)
}

// journalRecord persists a freshly calibrated operating point.
func (p *Pool) journalRecord(profile volt.DeviceProfile, rate, depthMV, tempC float64) {
	if p.journal == nil {
		return
	}
	p.journal.record(journal.Entry{
		Device:    journal.DeviceKey(profile),
		Rate:      rate,
		DepthMV:   depthMV,
		TempC:     tempC,
		SavedUnix: time.Now().Unix(),
	})
}

// journalDrop discards an entry that proved unusable.
func (p *Pool) journalDrop(e journal.Entry) {
	if p.journal == nil {
		return
	}
	p.journal.drop(e)
}

// verifyJournaled checks a journal-booted slot with a known-answer
// canary read: the observed fault rate must land inside the supervisor
// tolerance band around the target. A passing probe means the restart
// reached ready without a single CalibrateToRate call; a failing one
// means the journal was stale — the slot recalibrates in place and the
// journal is rewritten with the corrected depth.
func (p *Pool) verifyJournaled(slot *Slot, profile volt.DeviceProfile, rate float64) {
	sess := slot.Sup.Session()
	tol := p.cfg.Supervisor.RateTolerance
	if tol == 0 {
		tol = 0.35
	}
	var observed float64
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		observed, err = sess.ObserveRate(journalVerifyMuls)
		if err == nil || volt.Permanent(err) {
			break
		}
	}
	if err != nil {
		// The probe itself faulted: leave the journaled depth in place;
		// the supervisor's own canaries take over from here.
		p.logf("serve: slot %d: journal verify canary failed: %v", slot.ID, err)
		return
	}
	if observed >= rate*(1-tol) && observed <= rate*(1+tol) {
		return // journaled depth verified — calibration skipped entirely
	}
	p.logf("serve: slot %d: journaled depth produces rate %.4g, target %.4g; recalibrating", slot.ID, observed, rate)
	depth, err := sess.Recalibrate(rate)
	if err != nil {
		p.logf("serve: slot %d: recalibration after stale journal failed: %v", slot.ID, err)
		return
	}
	p.journalRecord(profile, rate, depth, slot.Det.Regulator().Temperature())
}
