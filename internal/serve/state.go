package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"fttt/internal/core"
)

// Migration sentinels; the HTTP layer maps them to status codes.
var (
	// ErrSessionExists is returned when a requested session ID is
	// already taken (409) — a create with X-Fttt-Session-Id or a state
	// restore collided.
	ErrSessionExists = errors.New("serve: session ID already exists")
	// ErrSessionBusy is returned when a state export finds requests in
	// flight (409): a consistent snapshot needs a quiesced session, which
	// the drain flow guarantees.
	ErrSessionBusy = errors.New("serve: session has requests in flight")
)

// TargetState is one target's migratable state on the wire: the
// per-target request cursor (the index the next localize request's
// noise substream is derived from), the latest estimate for warm
// re-serving, and the tracker's warm-start snapshot.
type TargetState struct {
	ID string `json:"id"`
	// Seq is the next request index — requests 0..Seq-1 were admitted on
	// the exporting backend, so the successor continues at Seq and the
	// RequestStream(root, target, n) contract keeps drawing the same
	// noise the un-migrated session would have.
	Seq uint64 `json:"seq"`
	// Latest is the most recent estimate, if any — restored so
	// GET /v1/sessions/{id}/estimates/{target} keeps answering across
	// the migration.
	Latest *EstimateWire `json:"latest,omitempty"`
	// Snapshot is the tracker's warm-start state (core.TargetSnapshot:
	// warm face, extrapolation history, fault clock). FaceID -1 with a
	// zero snapshot means the target was admitted but never executed.
	Snapshot core.TargetSnapshot `json:"snapshot"`
}

// SessionState is the wire form of one session's whole migratable
// state — the body GET /v1/sessions/{id}/state exports and
// PUT /v1/sessions/{id}/state restores on a successor backend. The
// session's division itself never rides the wire: SpecKey content-
// addresses it, and the successor re-acquires it through its field
// cache (a warm spill directory shared across the cluster turns that
// into a zero-build disk load — DESIGN.md §16).
type SessionState struct {
	ID string `json:"id"`
	// SpecKey is field.Spec.Key() of the session's division — the
	// content address of the preprocessing. The restoring server
	// recomputes it from Config and refuses a mismatch, so a migration
	// can never silently marry a session to different preprocessing.
	SpecKey string `json:"specKey"`
	// Config is the original wire config the session was created from.
	Config SessionConfig `json:"config"`
	// Targets carries per-target state, sorted by ID.
	Targets []TargetState `json:"targets,omitempty"`
}

// Export serializes the session's migratable state. It requires a
// quiesced session — zero requests in flight (ErrSessionBusy
// otherwise) — which the migration flow guarantees by draining the
// backend first. Defense trust state is not exported (see
// core.TargetSnapshot).
func (s *Session) Export() (SessionState, error) {
	if s.inflight.Load() != 0 {
		return SessionState{}, ErrSessionBusy
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SessionState{}, ErrSessionClosed
	}
	seq := make(map[string]uint64, len(s.seq))
	for id, n := range s.seq {
		seq[id] = n
	}
	latest := make(map[string]EstimateWire, len(s.latest))
	for id, ew := range s.latest {
		latest[id] = ew
	}
	s.mu.Unlock()

	// Union of executed targets (the tracker knows them) and admitted-
	// but-never-executed ones (only the seq table knows them).
	ids := s.mt.Targets()
	known := make(map[string]bool, len(ids))
	for _, id := range ids {
		known[id] = true
	}
	for id := range seq {
		if !known[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	st := SessionState{
		ID:      s.id,
		SpecKey: s.cfg.DivisionSpec().Key(),
		Config:  s.wire,
		Targets: make([]TargetState, 0, len(ids)),
	}
	for _, id := range ids {
		ts := TargetState{ID: id, Seq: seq[id], Snapshot: core.TargetSnapshot{FaceID: -1}}
		if ew, ok := latest[id]; ok {
			ew := ew
			ts.Latest = &ew
		}
		if known[id] {
			snap, err := s.mt.SnapshotTarget(id)
			if err != nil {
				return SessionState{}, err
			}
			ts.Snapshot = snap
		}
		st.Targets = append(st.Targets, ts)
	}
	return st, nil
}

// RestoreSession re-creates a migrated session from an exported state:
// the same ID, the division re-acquired by content address through the
// field cache, every target restored to its snapshot, and the request
// cursors advanced so the determinism contract continues seamlessly —
// the n-th request for target T still draws RequestStream(root, T, n).
// Errors: ErrDraining, ErrSessionExists, config validation errors, and
// a spec-key mismatch when the restoring server would derive different
// preprocessing from the config than the exporter used.
func (s *Server) RestoreSession(st SessionState) (*Session, error) {
	if st.ID == "" {
		return nil, errors.New("serve: session state has no ID")
	}
	if st.SpecKey != "" {
		cfg, err := st.Config.CoreConfig()
		if err != nil {
			return nil, err
		}
		if key := cfg.DivisionSpec().Key(); key != st.SpecKey {
			return nil, fmt.Errorf("serve: state spec key %s does not match config-derived %s", st.SpecKey, key)
		}
	}
	sess, err := s.createSession(st.ID, st.Config)
	if err != nil {
		return nil, err
	}
	for _, ts := range st.Targets {
		if ts.Snapshot.FaceID >= 0 || ts.Snapshot.HistN > 0 || ts.Snapshot.FaultNow > 0 {
			if err := sess.mt.RestoreTarget(ts.ID, ts.Snapshot); err != nil {
				s.CloseSession(st.ID)
				return nil, err
			}
		}
		sess.mu.Lock()
		sess.seq[ts.ID] = ts.Seq
		if ts.Latest != nil {
			sess.latest[ts.ID] = *ts.Latest
		}
		sess.mu.Unlock()
	}
	return sess, nil
}

// SessionCount reports the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Quiesce is the first half of Drain: refuse new work with 503, then
// block until every admitted request has been answered (or ctx
// expires). Unlike Drain it leaves the sessions alive — quiesced
// sessions still answer state exports, which is what a migrating
// router needs (the fttt-serve -migrate-grace window).
func (s *Server) Quiesce(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitEmpty blocks until the session table is empty (every session
// migrated off or closed) or ctx expires, returning ctx.Err() in the
// latter case. Used by fttt-serve's -migrate-grace drain phase.
func (s *Server) WaitEmpty(ctx context.Context) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.SessionCount() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// --- HTTP handlers ---

func (s *Server) handleStateExport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	st, err := sess.Export()
	if err != nil {
		writeError(w, statusFor(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStateRestore(w http.ResponseWriter, r *http.Request) {
	var st SessionState
	if !readWire(w, r, "session state", func(wb *wireBuf) error { return decodeStrict(wb.body, &st) }) {
		return
	}
	id := r.PathValue("id")
	if st.ID == "" {
		st.ID = id
	} else if st.ID != id {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: state ID %q does not match path ID %q", st.ID, id))
		return
	}
	sess, err := s.RestoreSession(st)
	if err != nil {
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	s.met.restores.Inc()
	writeJSON(w, http.StatusCreated, s.describe(sess))
}
