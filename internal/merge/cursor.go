// Session cursor: how every copy of a session's merged state follows
// its source. A relay subscription, a SubMerger's uplink, an SSE stream
// and a client mirror each hold one Cursor, build their next PollArgs
// from it, and judge every PollReply by the one resync rule in Verdict.
package merge

import (
	"strings"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
)

// Cursor is how far a follower has read one session: the version and
// epoch of the last reply it took. The zero position (no version) is a
// follower with nothing yet, which polls for everything.
type Cursor struct {
	Session string
	Version int64
	// Epoch is the incarnation the Version was read at (0 = not known).
	Epoch int64
}

// Verdict sorts a poll reply against the position a cursor holds.
type Verdict int

const (
	// Continues: the reply extends the state the cursor reached.
	Continues Verdict = iota
	// Rebuilt: the source's state was rebuilt under the cursor. Its
	// versions no longer compare with the cursor's, so the follower must
	// drop its copy and resync in full from the zero position.
	Rebuilt
	// Unknown: the source does not know the session (version 0) — it was
	// never created there, was dropped, or is a handoff tombstone, whatever
	// epoch it carries.
	Unknown
)

// Args builds the poll that continues from the cursor: an increment
// since its version (parked up to wait when nothing is new), or, with
// full, the whole state plus the log lines after its version.
func (c *Cursor) Args(full bool, wait time.Duration) PollArgs {
	return PollArgs{
		SessionID: c.Session, SinceVersion: c.Version, SinceEpoch: c.Epoch,
		Full: full, Wait: wait,
	}
}

// Verdict applies the resync rule to r. A cursor that holds a version
// sees a rebuild when the reply's version regressed (a handoff
// straggler, or a source without epoch stamps that started over) or its
// epoch changed: a re-created session's new version counter may already
// have overtaken the cursor's, so regression alone cannot tell.
func (c *Cursor) Verdict(r *PollReply) Verdict {
	switch {
	case r.Version == 0:
		return Unknown
	case c.Version > 0 && (r.Version < c.Version ||
		r.Epoch != 0 && c.Epoch != 0 && r.Epoch != c.Epoch):
		return Rebuilt
	}
	return Continues
}

// Unchanged reports whether r, taken as a continuation, brings nothing
// new: the source is still at the cursor's version.
func (c *Cursor) Unchanged(r *PollReply) bool {
	return !r.Changed && r.Version == c.Version
}

// Take moves the cursor to a reply the follower has applied. A reply
// without an epoch keeps the one the cursor knows.
func (c *Cursor) Take(r *PollReply) {
	c.Version = r.Version
	if r.Epoch != 0 {
		c.Epoch = r.Epoch
	}
}

// Reset moves the cursor back to the zero position of its session.
func (c *Cursor) Reset() { *c = Cursor{Session: c.Session} }

// Snapshot turns a reply into the payload a Transport forwards: the
// entries decoded, the removals of an increment (a full baseline
// replaces the receiver's state, so it carries none), the workers'
// progress summed, and the log lines joined.
func (r *PollReply) Snapshot(full bool) (Snapshot, error) {
	d := &aida.DeltaState{Full: full}
	for _, e := range r.Entries {
		st, err := e.State()
		if err != nil {
			return Snapshot{}, err
		}
		d.Entries = append(d.Entries, aida.TreeEntry{Path: e.Path, Object: st})
	}
	if !full {
		d.Removed = r.Removed
	}
	snap := Snapshot{Delta: d, Log: strings.Join(r.Logs, "\n")}
	for _, p := range r.Progress {
		snap.Done += p.EventsDone
		snap.Total += p.EventsTotal
	}
	return snap, nil
}
