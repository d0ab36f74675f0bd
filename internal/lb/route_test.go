package lb

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"setupsched/internal/wire"
	"setupsched/internal/wire/wiretest"
	"setupsched/sched"
	"setupsched/schedgen"
)

// FuzzRouteInstance is the differential test of the lb's routing read:
// whenever the plain reader accepts a body, json.Unmarshal must accept
// it too with a deep-equal instance, and routeInstance must route
// exactly the bodies json.Unmarshal routes, by the fingerprint of the
// instance json.Unmarshal reads.
func FuzzRouteInstance(f *testing.F) {
	for _, b := range wiretest.Bodies() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Instance *sched.Instance `json:"instance"`
		}
		wantErr := json.Unmarshal(body, &want)
		var rd wire.Reader
		if in, ok := plainInstance(&rd, body); ok {
			if wantErr != nil {
				t.Fatalf("plain reader accepted %q, json.Unmarshal: %v", body, wantErr)
			}
			if !reflect.DeepEqual(in, want.Instance) {
				t.Fatalf("plain reader read %q as %+v, json.Unmarshal as %+v", body, in, want.Instance)
			}
		}
		fp, err := routeInstance(body)
		switch {
		case wantErr != nil || want.Instance == nil:
			if err == nil {
				t.Fatalf("routeInstance(%q) routed to %s; json.Unmarshal: %v, instance %v", body, fp, wantErr, want.Instance)
			}
		case err != nil:
			t.Fatalf("routeInstance(%q): %v; json.Unmarshal read %+v", body, err, want.Instance)
		case fp != want.Instance.Fingerprint():
			t.Fatalf("routeInstance(%q) = %s, want %s", body, fp, want.Instance.Fingerprint())
		}
	})
}

// TestRouteInstanceTakesFamilyBodies pins the fast path: the bodies
// clients write, for every schedgen family, are read without reflection.
func TestRouteInstanceTakesFamilyBodies(t *testing.T) {
	var rd wire.Reader
	for _, b := range wiretest.Bodies()[:2*len(schedgen.Families)] {
		if _, ok := plainInstance(&rd, b); !ok {
			t.Errorf("plain reader rejected %s", b)
		}
	}
}

// TestTrailingBytesRejectedOnEveryTier: a solve body followed by
// anything but whitespace is a 400 at the lb and at each shard, which
// used to answer 200 after reading only the first JSON value.
func TestTrailingBytesRejectedOnEveryTier(t *testing.T) {
	p, backends, _ := newCluster(t, 2)
	body, err := json.Marshal(map[string]any{"variant": "nonp", "instance": lbInstance(1)})
	if err != nil {
		t.Fatal(err)
	}
	good := append(append([]byte(nil), body...), " \n"...)
	if rec, _ := doJSON(t, p, http.MethodPost, "/v1/solve", good); rec.Code != http.StatusOK {
		t.Fatalf("lb: trailing whitespace answered %d, want 200", rec.Code)
	}
	for _, bad := range [][]byte{
		append(append([]byte(nil), body...), " garbage"...),
		append(append([]byte(nil), body...), body...),
	} {
		if rec, out := doJSON(t, p, http.MethodPost, "/v1/solve", bad); rec.Code != http.StatusBadRequest || out["error"] == nil {
			t.Errorf("lb: %.40q... answered %d %v, want 400 with an error", bad[len(body):], rec.Code, out)
		}
		for i, b := range backends {
			resp, err := b.Client().Post(b.URL+"/v1/solve", "application/json", bytes.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || out["error"] == nil {
				t.Errorf("shard %d: %.40q... answered %d %v (%v), want 400 with an error", i, bad[len(body):], resp.StatusCode, out, err)
			}
		}
	}
}
