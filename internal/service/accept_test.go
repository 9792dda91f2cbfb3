package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestHTTPConfigureAcceptSet pins what POST /v1/configure and
// /v1/configure:batch accept and how they answer, row by row, in the
// order the rows run on one service: the status, the X-Aarc-Cache header,
// and either the body of an earlier row the request decodes to the same
// spec as (its twin), the fingerprint of the spec it should decode to, or
// the error text. Most rows are inputs only encoding/json's decoding
// handles: case-folded keys, a repeated knob, null, unknown members,
// escapes, trailing bytes.
func TestHTTPConfigureAcceptSet(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	// fingerprintOf is the fingerprint the service gives chatbot renamed,
	// computed from the Spec without any JSON.
	fingerprintOf := func(name string) string {
		spec := workloads.Chatbot()
		spec.Name = name
		r, err := svc.resolve(spec, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fp, _, err := svc.fingerprint(spec, r)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	bodies := map[string][]byte{}
	for _, r := range acceptRows(t, fingerprintOf) {
		path := r.path
		if path == "" {
			path = "/v1/configure"
		}
		resp, b := postJSON(t, ts.URL+path, r.body)
		bodies[r.name] = b
		if resp.StatusCode != r.status || resp.Header.Get("X-Aarc-Cache") != r.cache {
			t.Errorf("%s: status %d, X-Aarc-Cache %q; want %d, %q: %s", r.name, resp.StatusCode, resp.Header.Get("X-Aarc-Cache"), r.status, r.cache, b)
			continue
		}
		switch {
		case r.twin != "":
			if !bytes.Equal(b, bodies[r.twin]) {
				t.Errorf("%s: body differs from %s's:\n%s\nvs\n%s", r.name, r.twin, b, bodies[r.twin])
			}
		case r.fp != "":
			var rec Recommendation
			if err := json.Unmarshal(b, &rec); err != nil || rec.Fingerprint != r.fp {
				t.Errorf("%s: fingerprint %q (%v), want %q", r.name, rec.Fingerprint, err, r.fp)
			}
		case r.err != "":
			var e struct{ Error string }
			if err := json.Unmarshal(b, &e); err != nil || e.Error != r.err {
				t.Errorf("%s: error %q (%v), want %q", r.name, e.Error, err, r.err)
			}
		}
	}

	var batch struct {
		Results []struct {
			Status         int             `json:"status"`
			Cache          string          `json:"cache"`
			Recommendation json.RawMessage `json:"recommendation"`
			Error          string          `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(bodies["batch with a malformed item"], &batch); err != nil || len(batch.Results) != 3 {
		t.Fatalf("batch: %v: %s", err, bodies["batch with a malformed item"])
	}
	var want, got bytes.Buffer
	items := batch.Results
	if err := json.Compact(&want, bodies["compact"]); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, items[0].Recommendation); err != nil {
		t.Fatal(err)
	}
	if items[0].Status != http.StatusOK || items[0].Cache != "hit" || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("batch item 0 = %d %q, want the compact row's recommendation as a hit", items[0].Status, items[0].Cache)
	}
	if want := "workflow: decoding spec: json: cannot unmarshal number into Go struct field specJSON.nodes of type []workflow.nodeJSON"; items[1].Status != http.StatusBadRequest || items[1].Error != want {
		t.Errorf("batch item 1 = %d %q, want 400 %q", items[1].Status, items[1].Error, want)
	}
	if items[2].Status != http.StatusOK || items[2].Cache != "miss" {
		t.Errorf("batch item 2 = %d %q, want a 200 miss", items[2].Status, items[2].Cache)
	}
}

// acceptRow is one request of TestHTTPConfigureAcceptSet and the answer it
// must get.
type acceptRow struct {
	name   string
	path   string
	body   string
	status int
	cache  string // X-Aarc-Cache; "" for none
	twin   string // an earlier row whose body this one must equal
	fp     string // else the fingerprint the body must carry
	err    string // else the error text
}

// acceptRows are TestHTTPConfigureAcceptSet's requests, in order, built on
// chatbot's definition; fingerprintOf gives the fingerprint a renamed
// chatbot must get.
func acceptRows(t testing.TB, fingerprintOf func(name string) string) []acceptRow {
	t.Helper()
	var pretty bytes.Buffer
	if err := workflow.EncodeSpec(&pretty, workloads.Chatbot()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, pretty.Bytes()); err != nil {
		t.Fatal(err)
	}
	compact := buf.String()
	named := func(name string) string {
		return strings.Replace(compact, `"name":"chatbot"`, `"name":`+name, 1)
	}
	return []acceptRow{
		{name: "compact", body: `{"spec":` + compact + `}`, status: http.StatusOK, cache: "miss"},
		{name: "pretty", body: "{\n  \"spec\": " + pretty.String() + "}\n", status: http.StatusOK, cache: "hit", twin: "compact"},
		{name: "case-folded keys", status: http.StatusOK, cache: "hit", twin: "compact",
			body: `{"SPEC":` + strings.NewReplacer(`"nodes"`, `"Nodes"`, `"cpu_work_ms"`, `"CPU_WORK_MS"`).Replace(compact) + `}`},
		{name: "repeated knob, last wins", body: `{"slo_ms":1,"spec":` + compact + `,"slo_ms":0}`, status: http.StatusOK, cache: "hit", twin: "compact"},
		{name: "null seed", body: `{"spec":` + compact + `,"seed":null}`, status: http.StatusOK, cache: "hit", twin: "compact"},
		{name: "null limits", status: http.StatusOK, cache: "hit", twin: "compact",
			body: `{"spec":` + compact[:strings.Index(compact, `,"limits":`)] + `,"limits":null}}`},
		{name: "unknown envelope member", body: `{"spec":` + compact + `,"extra":[1,{"a":null}]}`, status: http.StatusOK, cache: "hit", twin: "compact"},
		{name: "trailing bytes", body: `{"spec":` + compact + `} trailing [garbage`, status: http.StatusOK, cache: "hit", twin: "compact"},
		{name: "unknown spec member", body: `{"spec":{"bogus":1,` + compact[1:] + `}`, status: http.StatusBadRequest,
			err: `workflow: decoding spec: json: unknown field "bogus"`},
		{name: "fractional seed", body: `{"spec":` + compact + `,"seed":1.5}`, status: http.StatusBadRequest,
			err: "request: decoding body: json: cannot unmarshal number 1.5 into Go struct field configureRequest.requestKnobs.seed of type uint64"},
		{name: "exponent max_samples", body: `{"spec":` + compact + `,"max_samples":1e3}`, status: http.StatusBadRequest,
			err: "request: decoding body: json: cannot unmarshal number 1e3 into Go struct field configureRequest.requestKnobs.max_samples of type int"},
		{name: "out-of-range slo_ms", body: `{"spec":` + compact + `,"slo_ms":1e400}`, status: http.StatusBadRequest,
			err: "request: decoding body: json: cannot unmarshal number 1e400 into Go struct field configureRequest.requestKnobs.slo_ms of type float64"},
		{name: "escaped quote in name", body: `{"spec":` + named(`"chat\"bot"`) + `}`, status: http.StatusOK, cache: "miss", fp: fingerprintOf(`chat"bot`)},
		{name: "escaped non-ASCII name", body: `{"spec":` + named(`"caf\u00e9"`) + `}`, status: http.StatusOK, cache: "miss", fp: fingerprintOf("café")},
		{name: "raw UTF-8 name", body: `{"spec":` + named(`"café"`) + `}`, status: http.StatusOK, cache: "hit", twin: "escaped non-ASCII name"},
		{name: "batch with a malformed item", path: "/v1/configure:batch", status: http.StatusOK,
			body: `{"requests":[{"spec":` + compact + `},{"spec":{"name":"x","nodes":5}},{"workload":"ml-pipeline"}]}`},
	}
}
