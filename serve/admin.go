package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"setupsched/sched"
)

// This file is the shard-administration surface: the drain endpoint and
// the session snapshot export/import used for migration on topology
// change and for clean shard restarts.
//
// Migration protocol (executed by an operator, the load-test harness, or
// any driver that can compute ring ownership):
//
//  1. Derive the new shard.Ring from the new topology.
//  2. POST /v1/admin/drain on every shard leaving the topology (or whose
//     key range shrinks).  The shard atomically flips into draining mode
//     — /healthz turns 503, new session creates are refused — and the
//     response streams one SessionSnapshot per live session as NDJSON.
//  3. For each snapshot, POST /v1/sessions on the new ring's owner for
//     its session id, carrying the snapshot's session_id, rev and
//     instance.  The re-created session answers solves bit-identically
//     to the original: the session contract guarantees every solve
//     equals a fresh solve of the current instance, and the instance is
//     exactly what moved.  Warm-start seeds and cached results are
//     deliberately NOT migrated — they are an optimization the new owner
//     rebuilds on first solve, never a correctness input.
//  4. Retire the drained process (it keeps answering stateless solves
//     and existing-session traffic until then, so in-flight clients
//     finish cleanly).
//
// The same snapshot stream backs schedserve's -session-snapshot flag:
// on SIGTERM the process exports to a file, on restart it imports,
// making shard restarts lossless for session state.

// SessionSnapshot is one exported session: everything migration needs to
// re-create it bit-identically on another shard.  It is the NDJSON line
// format of the drain endpoint and of ExportSessions/ImportSessions.
type SessionSnapshot struct {
	SessionID string          `json:"session_id"`
	Rev       uint64          `json:"rev"`
	Instance  *sched.Instance `json:"instance"`
}

// Draining reports whether this server has been put into draining mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDraining flips the server into draining mode: /healthz answers
// 503 so front tiers take the shard out, and new session creates are
// refused.  Existing sessions and stateless solves keep working so
// in-flight clients finish.  Draining is one-way for the process's
// lifetime.
func (s *Server) StartDraining() { s.draining.Store(true) }

// ExportSessions writes one SessionSnapshot NDJSON line per live session
// and returns how many were written.  Each snapshot is taken under its
// session's own lock (consistent instance+rev pair); the registry lock
// is not held while snapshotting, so one long-running solve delays only
// its own session's line.
func (s *Server) ExportSessions(ctx context.Context, w io.Writer) (int, error) {
	if s.sessions == nil {
		return 0, nil
	}
	enc := json.NewEncoder(w)
	n := 0
	for _, e := range s.sessions.live() {
		in, rev, err := e.sess.Snapshot(ctx)
		if err != nil {
			return n, fmt.Errorf("snapshotting session %s: %w", e.id, err)
		}
		if err := enc.Encode(&SessionSnapshot{SessionID: e.id, Rev: rev, Instance: in}); err != nil {
			return n, err
		}
		n++
		s.metrics.sessionsExported.Inc()
	}
	return n, nil
}

// ImportSessions reads SessionSnapshot NDJSON lines and re-creates each
// session under its original id and revision, returning how many were
// imported.  Snapshots whose id already exists are skipped (idempotent
// re-import); invalid snapshots abort with an error naming the line.
func (s *Server) ImportSessions(ctx context.Context, r io.Reader) (int, error) {
	if s.sessions == nil {
		return 0, fmt.Errorf("sessions are disabled on this server")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), int(s.cfg.MaxBodyBytes))
	n, line := 0, 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var snap SessionSnapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			return n, fmt.Errorf("snapshot line %d: %w", line, err)
		}
		if snap.Instance == nil {
			return n, fmt.Errorf("snapshot line %d: missing instance", line)
		}
		if snap.SessionID != "" && !validSessionID(snap.SessionID) {
			return n, fmt.Errorf("snapshot line %d: invalid session id %q", line, snap.SessionID)
		}
		info, status := s.createSession(ctx, &SessionCreateRequest{
			Instance: snap.Instance, SessionID: snap.SessionID, Rev: snap.Rev,
		})
		if status == http.StatusConflict {
			continue
		}
		if info.Error != "" {
			return n, fmt.Errorf("snapshot line %d (session %s): %s", line, snap.SessionID, info.Error)
		}
		n++
		s.metrics.sessionsImported.Inc()
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}

// handleDrain is POST /v1/admin/drain: flip into draining mode and
// stream the session export.  Idempotent — a second drain streams the
// remaining (not yet migrated or expired) sessions again.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.StartDraining()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sched-Draining", "true")
	n, err := s.ExportSessions(r.Context(), w)
	if err != nil {
		// The export is NDJSON-streamed; all we can do mid-stream is log
		// the count mismatch via metrics and cut the stream short.  The
		// driver detects the short stream by comparing the lines it got
		// with sched_sessions_active on /metrics.
		s.metrics.errors.Inc()
		return
	}
	s.logger.Info("drain: exported sessions", "shard", s.cfg.ShardID, "sessions", n)
}

// handleImport is POST /v1/admin/sessions/import: bulk re-create
// sessions from a snapshot stream (the HTTP face of ImportSessions, for
// drivers that migrate whole shards at once instead of per-session
// creates).
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	n, err := s.ImportSessions(r.Context(), body)
	if err != nil {
		s.metrics.errors.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]any{"imported": n, "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"imported": n})
}
