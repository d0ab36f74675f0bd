package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"setupsched"
	"setupsched/sched"
)

// drain POSTs /v1/admin/drain and returns the raw NDJSON snapshot body.
func drain(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/admin/drain", "application/x-ndjson", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Sched-Draining") != "true" {
		t.Fatal("drain response missing X-Sched-Draining header")
	}
	var buf bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		buf.Write(sc.Bytes())
		buf.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionMigration exercises the full drain → import protocol across
// two shards and checks the acceptance contract: a migrated session
// keeps its id and revision, and its solves are bit-identical to a
// fresh solve of the moved instance.
func TestSessionMigration(t *testing.T) {
	a := httptest.NewServer(New(Config{ShardID: "shard-a"}))
	defer a.Close()
	b := httptest.NewServer(New(Config{ShardID: "shard-b"}))
	defer b.Close()

	// A session on shard A, mutated past its starting instance so the
	// snapshot must carry live (not just initial) state.
	var info SessionInfo
	buf, _ := json.Marshal(&SessionCreateRequest{Instance: sessionTestInstance(7)})
	resp, err := a.Client().Post(a.URL+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(ShardHeader); got != "shard-a" {
		t.Fatalf("shard header = %q, want shard-a", got)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Error != "" {
		t.Fatalf("session create: %s", info.Error)
	}
	var dr SessionDeltaResponse
	if code := postSessionJSON(t, a.Client(), a.URL+"/v1/sessions/"+info.SessionID+"/delta", &SessionDeltaRequest{
		Deltas: []sched.Delta{
			{Op: sched.DeltaSetMachines, M: 30},
			{Op: sched.DeltaSetSetup, Class: 0, Setup: 777},
		},
	}, &dr); code != http.StatusOK || dr.Error != "" {
		t.Fatalf("delta: status %d error %q", code, dr.Error)
	}

	// The reference answer: solve the session on shard A before moving it.
	respA, solveA := postJSONClient(t, a.Client(), a.URL+"/v1/sessions/"+info.SessionID+"/solve", &SolveRequest{})
	if solveA.Error != "" {
		t.Fatalf("solve on A: %s", solveA.Error)
	}
	if got := respA.Header.Get(ShardHeader); got != "shard-a" {
		t.Fatalf("solve shard header = %q, want shard-a", got)
	}

	// Drain shard A: snapshot stream out, health flips, creates refused.
	snap := drain(t, a)
	lines := strings.Count(string(snap), "\n")
	if lines != 1 {
		t.Fatalf("drain exported %d sessions, want 1", lines)
	}
	var ss SessionSnapshot
	if err := json.Unmarshal(snap[:len(snap)-1], &ss); err != nil {
		t.Fatal(err)
	}
	if ss.SessionID != info.SessionID || ss.Rev != dr.Rev || ss.Instance == nil {
		t.Fatalf("snapshot = {id %q rev %d instance? %v}, want {%q %d true}",
			ss.SessionID, ss.Rev, ss.Instance != nil, info.SessionID, dr.Rev)
	}
	if hresp, err := a.Client().Get(a.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining healthz = %d, want 503", hresp.StatusCode)
		}
	}
	if code := postSessionJSON(t, a.Client(), a.URL+"/v1/sessions", &SessionCreateRequest{Instance: testInstance(1)}, &SessionInfo{}); code != http.StatusServiceUnavailable {
		t.Fatalf("create on draining shard = %d, want 503", code)
	}

	// Import into shard B; re-import must be a no-op (idempotent).
	for round, wantN := range []int{1, 0} {
		resp, err := b.Client().Post(b.URL+"/v1/admin/sessions/import", "application/x-ndjson", bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Imported int    `json:"imported"`
			Error    string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || out.Imported != wantN {
			t.Fatalf("import round %d: status %d imported %d (err %q), want %d",
				round, resp.StatusCode, out.Imported, out.Error, wantN)
		}
	}

	// The migrated session answers under its original id and revision.
	var infoB SessionInfo
	if resp, err := b.Client().Get(b.URL + "/v1/sessions/" + info.SessionID); err != nil {
		t.Fatal(err)
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&infoB); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if infoB.SessionID != info.SessionID || infoB.Rev != dr.Rev {
		t.Fatalf("migrated session = {id %q rev %d}, want {%q %d}", infoB.SessionID, infoB.Rev, info.SessionID, dr.Rev)
	}

	// Bit-identity, both ways: the migrated solve matches the pre-move
	// session solve on A AND a fresh solve of the snapshot instance —
	// the contract internal/diff enforces for sessions.  The fresh
	// reference is an in-process NewSolver on the snapshot itself:
	// the HTTP stateless path canonicalizes (reorders classes) first,
	// and schedule makespans are order-dependent even when bounds agree.
	respB, solveB := postJSONClient(t, b.Client(), b.URL+"/v1/sessions/"+info.SessionID+"/solve", &SolveRequest{})
	if solveB.Error != "" {
		t.Fatalf("solve on B: %s", solveB.Error)
	}
	if got := respB.Header.Get(ShardHeader); got != "shard-b" {
		t.Fatalf("solve shard header = %q, want shard-b", got)
	}
	solver, err := setupsched.NewSolver(ss.Instance)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := solver.Solve(context.Background(), sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmp := range []struct {
		name      string
		got, want string
	}{
		{"makespan vs A", solveB.Makespan, solveA.Makespan},
		{"lower_bound vs A", solveB.LowerBound, solveA.LowerBound},
		{"makespan vs fresh", solveB.Makespan, fresh.Makespan.String()},
		{"lower_bound vs fresh", solveB.LowerBound, fresh.LowerBound.String()},
	} {
		if cmp.got != cmp.want {
			t.Errorf("migrated solve %s: %q != %q", cmp.name, cmp.got, cmp.want)
		}
	}
	if solveB.SessionRev != dr.Rev {
		t.Errorf("migrated solve rev = %d, want %d", solveB.SessionRev, dr.Rev)
	}

	// The session keeps evolving on its new shard: deltas apply on top of
	// the migrated revision, not from zero.
	var dr2 SessionDeltaResponse
	if code := postSessionJSON(t, b.Client(), b.URL+"/v1/sessions/"+info.SessionID+"/delta", &SessionDeltaRequest{
		Deltas: []sched.Delta{{Op: sched.DeltaSetMachines, M: 31}},
	}, &dr2); code != http.StatusOK || dr2.Error != "" {
		t.Fatalf("post-migration delta: status %d error %q", code, dr2.Error)
	}
	if dr2.Rev != dr.Rev+1 {
		t.Fatalf("post-migration rev = %d, want %d", dr2.Rev, dr.Rev+1)
	}

	// The metrics reflect the move on both sides.
	mA, mB := scrapeMetrics(t, a), scrapeMetrics(t, b)
	if mA["sched_draining"] != 1 || mA[`sched_shard_info{shard="shard-a"}`] != 1 || mA["sched_sessions_exported_total"] != 1 {
		t.Errorf("shard A metrics = {draining %v shard-a info %v exported %v}",
			mA["sched_draining"], mA[`sched_shard_info{shard="shard-a"}`], mA["sched_sessions_exported_total"])
	}
	if mB["sched_draining"] != 0 || mB[`sched_shard_info{shard="shard-b"}`] != 1 || mB["sched_sessions_imported_total"] != 1 {
		t.Errorf("shard B metrics = {draining %v shard-b info %v imported %v}",
			mB["sched_draining"], mB[`sched_shard_info{shard="shard-b"}`], mB["sched_sessions_imported_total"])
	}
}

// postJSONClient is postJSON against an absolute URL with an explicit
// client (the admin tests talk to two servers at once).
func postJSONClient(t *testing.T, client *http.Client, url string, body any) (*http.Response, *SolveResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, &out
}
