package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"setupsched"
	"setupsched/obs"
	"setupsched/sched"
	"setupsched/stream"
)

// sessionEntry is one live incremental solve session.
type sessionEntry struct {
	id       string
	sess     *stream.Session
	created  time.Time
	lastUsed time.Time // guarded by the store mutex
}

// sessionStore is a TTL+LRU registry of stream.Sessions.  Eviction is
// two-pronged: entries idle past the TTL are swept on every store access
// (the recency order keeps them clustered at the back), and inserting
// past capacity evicts the least recently used entry.  Each session
// serializes its own work internally (stream.Session's lock), so the
// store's mutex only guards the registry, never a solve.
type sessionStore struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries *lru[*sessionEntry]

	// Churn counters live in the server's obs registry (injected at
	// construction).
	created    *obs.Counter
	deleted    *obs.Counter
	evictedLRU *obs.Counter
	evictedTTL *obs.Counter

	now func() time.Time // test hook
}

func newSessionStore(capacity int, ttl time.Duration, created, deleted, evictedLRU, evictedTTL *obs.Counter) *sessionStore {
	if capacity <= 0 {
		return nil
	}
	return &sessionStore{
		ttl:        ttl,
		entries:    newLRU[*sessionEntry](capacity),
		created:    created,
		deleted:    deleted,
		evictedLRU: evictedLRU,
		evictedTTL: evictedTTL,
		now:        time.Now,
	}
}

// sweepLocked evicts every entry idle past the TTL.  The recency order
// is by last use, so expired entries form a suffix.
func (st *sessionStore) sweepLocked() {
	if st.ttl <= 0 {
		return
	}
	cutoff := st.now().Add(-st.ttl)
	for {
		e, ok := st.entries.oldest()
		if !ok || !e.lastUsed.Before(cutoff) {
			return
		}
		st.entries.remove(e.id)
		st.evictedTTL.Inc()
	}
}

// newSessionID returns a fresh random 128-bit hex id.
func newSessionID() string {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		panic("serve: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(buf)
}

// errSessionExists reports a create with an already-registered id.
var errSessionExists = errors.New("session id already exists")

// create registers a session under id (a fresh random id when empty —
// the front tier and migration tooling supply explicit ids so routing
// keys stay stable across shards).
func (st *sessionStore) create(id string, sess *stream.Session) (*sessionEntry, error) {
	if id == "" {
		id = newSessionID()
	}
	e := &sessionEntry{id: id, sess: sess}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	if _, ok := st.entries.get(id); ok {
		return nil, errSessionExists
	}
	e.created = st.now()
	e.lastUsed = e.created
	st.created.Inc()
	st.evictedLRU.Add(uint64(st.entries.put(e.id, e)))
	return e, nil
}

// get returns the live session for id, refreshing its TTL and LRU
// position; nil when unknown or expired.
func (st *sessionStore) get(id string) *sessionEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	e, ok := st.entries.get(id)
	if !ok {
		return nil
	}
	e.lastUsed = st.now()
	st.entries.touch(id)
	return e
}

// delete removes the session for id, reporting whether it existed.
func (st *sessionStore) delete(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	if !st.entries.remove(id) {
		return false
	}
	st.deleted.Inc()
	return true
}

// live returns the live session entries (most recently used first)
// without touching recency; the drain/export path iterates the result
// outside the store lock so a long-running solve on one session cannot
// stall the registry.
func (st *sessionStore) live() []*sessionEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	return st.entries.values()
}

// size returns the live session count for the sessions gauge (sweeping
// expired entries first, so the number reflects live state).
func (st *sessionStore) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	return st.entries.len()
}

// SessionCreateRequest is the JSON body of POST /v1/sessions.
type SessionCreateRequest struct {
	// Instance is the starting instance of the session.
	Instance *sched.Instance `json:"instance"`
	// SessionID, when set, pins the new session's id instead of letting
	// the shard generate one.  The schedlb front tier supplies it so the
	// id's ring owner is the shard it routes to, and migration re-creates
	// drained sessions under their original ids.  Ids are limited to 128
	// characters of [0-9a-zA-Z._-]; a duplicate id answers 409.
	SessionID string `json:"session_id,omitempty"`
	// Rev, when nonzero, fast-forwards the new session's revision —
	// migration uses it so a moved session keeps its revision history
	// monotone for clients that track session_rev across the move.
	Rev uint64 `json:"rev,omitempty"`
}

// SessionInfo describes a session; returned by the session endpoints.
type SessionInfo struct {
	SessionID   string `json:"session_id"`
	Rev         uint64 `json:"rev"`
	Machines    int64  `json:"machines"`
	Classes     int    `json:"classes"`
	Jobs        int    `json:"jobs"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
}

// SessionDeltaRequest is the JSON body of POST /v1/sessions/{id}/delta:
// a batch of deltas applied in order.  Application is not atomic — on a
// rejected delta the earlier ones stay applied and the response reports
// how many were (Applied) alongside the error.
type SessionDeltaRequest struct {
	Deltas []sched.Delta `json:"deltas"`
}

// SessionDeltaResponse is the JSON result of a delta application.
type SessionDeltaResponse struct {
	SessionID string `json:"session_id"`
	Rev       uint64 `json:"rev"`
	Applied   int    `json:"applied"`
	Machines  int64  `json:"machines"`
	Classes   int    `json:"classes"`
	Jobs      int    `json:"jobs"`
	Error     string `json:"error,omitempty"`
}

// sessionInfo builds the wire description of a session.  The request
// context bounds the wait for the session lock (a long-running solve on
// the same session would otherwise pin the handler goroutine even after
// the client disconnected).
func sessionInfo(ctx context.Context, e *sessionEntry, fingerprint bool) (*SessionInfo, error) {
	shape, err := e.sess.Describe(ctx)
	if err != nil {
		return nil, err
	}
	info := &SessionInfo{
		SessionID: e.id,
		Rev:       shape.Rev,
		Machines:  shape.Machines,
		Classes:   shape.Classes,
		Jobs:      shape.Jobs,
	}
	if fingerprint {
		if info.Fingerprint, err = e.sess.Fingerprint(ctx); err != nil {
			return nil, err
		}
	}
	return info, nil
}

// writeSessionInfo responds with the session description, mapping a lock
// wait canceled by the client to the solve-error statuses.
func (s *Server) writeSessionInfo(w http.ResponseWriter, r *http.Request, e *sessionEntry, status int, fingerprint bool) {
	info, err := sessionInfo(r.Context(), e, fingerprint)
	if err != nil {
		s.metrics.errors.Inc()
		resp := s.solveError(err)
		writeJSON(w, resp.status, &SessionInfo{SessionID: e.id, Error: resp.Error})
		return
	}
	writeJSON(w, status, info)
}

// validSessionID enforces the id alphabet for client-supplied ids so
// they stay safe in URLs, logs and metric labels.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.metrics.sessionRequests.Inc()
	if s.Draining() {
		// A draining shard is about to leave the topology; new sessions
		// must land on their post-rebalance owner instead.
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusServiceUnavailable, &SessionInfo{Error: "shard is draining; create the session on its new owner"})
		return
	}
	var req SessionCreateRequest
	if err := s.readRequest(w, r, &req); err != nil {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusBadRequest, &SessionInfo{Error: "decoding request: " + err.Error()})
		return
	}
	if req.Instance == nil {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusBadRequest, &SessionInfo{Error: "missing instance"})
		return
	}
	if req.SessionID != "" && !validSessionID(req.SessionID) {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusBadRequest, &SessionInfo{Error: "invalid session_id (want 1-128 chars of [0-9a-zA-Z._-])"})
		return
	}
	info, status := s.createSession(r.Context(), &req)
	if info.Error != "" {
		s.metrics.errors.Inc()
	}
	writeJSON(w, status, info)
}

// createSession builds and registers one session; shared by the create
// endpoint and snapshot import.
func (s *Server) createSession(ctx context.Context, req *SessionCreateRequest) (*SessionInfo, int) {
	sess, err := stream.NewSession(req.Instance)
	if err != nil {
		return &SessionInfo{Error: err.Error()}, http.StatusBadRequest
	}
	if req.Rev > 0 {
		if err := sess.AdvanceTo(ctx, req.Rev); err != nil {
			return &SessionInfo{Error: err.Error()}, http.StatusBadRequest
		}
	}
	e, err := s.sessions.create(req.SessionID, sess)
	if err != nil {
		return &SessionInfo{SessionID: req.SessionID, Error: err.Error()}, http.StatusConflict
	}
	info, err := sessionInfo(ctx, e, true)
	if err != nil {
		resp := s.solveError(err)
		return &SessionInfo{SessionID: e.id, Error: resp.Error}, resp.status
	}
	return info, http.StatusCreated
}

// sessionFor resolves the {id} path value, writing the 404 itself when
// the session is unknown or expired.
func (s *Server) sessionFor(w http.ResponseWriter, r *http.Request) *sessionEntry {
	e := s.sessions.get(r.PathValue("id"))
	if e == nil {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusNotFound, &SessionInfo{Error: "unknown or expired session"})
	}
	return e
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.sessionRequests.Inc()
	if e := s.sessionFor(w, r); e != nil {
		s.writeSessionInfo(w, r, e, http.StatusOK, r.URL.Query().Get("fingerprint") == "true")
	}
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.metrics.sessionRequests.Inc()
	if !s.sessions.delete(r.PathValue("id")) {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusNotFound, &SessionInfo{Error: "unknown or expired session"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	s.metrics.sessionRequests.Inc()
	e := s.sessionFor(w, r)
	if e == nil {
		return
	}
	var req SessionDeltaRequest
	if err := s.readRequest(w, r, &req); err != nil {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusBadRequest, &SessionDeltaResponse{SessionID: e.id, Error: "decoding request: " + err.Error()})
		return
	}
	if len(req.Deltas) == 0 {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusBadRequest, &SessionDeltaResponse{SessionID: e.id, Error: "empty delta list"})
		return
	}
	applied := 0
	var applyErr error
	for i := range req.Deltas {
		if applyErr = e.sess.Apply(r.Context(), req.Deltas[i]); applyErr != nil {
			applyErr = fmt.Errorf("delta %d (%s): %w", i, req.Deltas[i], applyErr)
			break
		}
		applied++
	}
	s.metrics.sessionDeltas.Add(uint64(applied))
	shape, err := e.sess.Describe(r.Context())
	if err != nil {
		s.metrics.errors.Inc()
		resp := s.solveError(err)
		writeJSON(w, resp.status, &SessionDeltaResponse{SessionID: e.id, Applied: applied, Error: resp.Error})
		return
	}
	resp := &SessionDeltaResponse{
		SessionID: e.id, Rev: shape.Rev, Applied: applied,
		Machines: shape.Machines, Classes: shape.Classes, Jobs: shape.Jobs,
	}
	status := http.StatusOK
	if applyErr != nil {
		s.metrics.errors.Inc()
		resp.Error = applyErr.Error()
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	s.metrics.sessionRequests.Inc()
	if e := s.sessionFor(w, r); e != nil {
		s.serveSolve(w, r, arrival, e)
	}
}

// sessionSolve runs one solve against a session, with Server.solve's
// request parse, timeout and verification.  The session itself is the
// cache (unchanged revisions return the previous result), so the global
// result cache is not consulted.
func (s *Server) sessionSolve(ctx context.Context, e *sessionEntry, req *SolveRequest, rec *obs.SpanRecorder) *SolveResponse {
	if req.Instance != nil {
		return errResponse(http.StatusBadRequest,
			"the instance is fixed by the session; mutate it via the delta endpoint")
	}
	v, algo, bad := parseSolve(req)
	if bad != nil {
		return bad
	}
	if algo == setupsched.RefExact {
		return errResponse(http.StatusBadRequest, "sessions do not run refexact; solve it with /v1/solve")
	}
	opts := []stream.SolveOption{
		stream.WithAlgorithm(algo),
		stream.WithObserver(s.probeObs),
	}
	if rec != nil {
		opts = append(opts, stream.WithObserver(rec))
	}
	if algo == setupsched.EpsilonSearch && req.Epsilon != 0 {
		opts = append(opts, stream.WithEpsilon(req.Epsilon))
	}
	if req.NoCache {
		opts = append(opts, stream.WithCold())
	}
	sctx, cancel := s.solveContext(ctx, req)
	defer cancel()
	res, err := e.sess.Solve(sctx, v, opts...)
	if err != nil {
		return s.solveError(err)
	}
	s.metrics.sessionSolves.Inc()
	switch {
	case res.Cached:
		s.metrics.sessionCacheHits.Inc()
	case res.Warm:
		s.metrics.sessionWarmHits.Inc()
	}
	// sched_probes_total counts executed dual tests only: the live probe
	// observer attached above sees every executed probe, and a cache
	// return emits no observer events — matching the stateless path.
	// Fresh results are re-verified before they cross the trust boundary,
	// exactly like /v1/solve responses.  Cached results re-serve a result
	// that passed this check when it was computed; ErrStale means the
	// client raced its own deltas, in which case the result is still the
	// verified answer for the revision it reports.
	if !res.Cached {
		if err := e.sess.Verify(ctx, v, res); err != nil && !errors.Is(err, stream.ErrStale) {
			return errResponse(http.StatusInternalServerError,
				"internal error: session produced an invalid schedule: "+err.Error())
		}
	}
	resp := s.respond(req, v, "", res.Result, res.Cached)
	resp.Warm = res.Warm
	resp.SessionRev = res.Rev
	return resp
}
