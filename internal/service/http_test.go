package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aarc/internal/workflow"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := stubService(t, cfg)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// specBody renders a testSpec variant in the inline-spec request format,
// exercising the DecodeSpec path rather than the workload shortcut.
func specBody(t *testing.T, variant int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := workflow.EncodeSpec(&buf, testSpec(t, variant)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestHTTPConfigureConcurrentSingleSearch(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	before := stubSearches.Load()

	// 64 concurrent requests: half for one spec, half spread over 4 others.
	const callers = 64
	bodies := make([]string, 5)
	for v := range bodies {
		bodies[v] = fmt.Sprintf(`{"spec": %s}`, specBody(t, v))
	}
	var wg sync.WaitGroup
	responses := make([][]byte, callers)
	statuses := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := bodies[0]
			if i%2 == 1 {
				body = bodies[1+(i/2)%4]
			}
			resp, b := postJSON(t, ts.URL+"/v1/configure", body)
			responses[i], statuses[i] = b, resp.StatusCode
		}(i)
	}
	wg.Wait()

	for i, code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, responses[i])
		}
	}
	if got := stubSearches.Load() - before; got != 5 {
		t.Errorf("%d concurrent requests over 5 distinct specs ran %d searches, want 5", callers, got)
	}
	if st := svc.Stats(); st.Entries != 5 {
		t.Errorf("cache entries = %d, want 5", st.Entries)
	}

	// Responses for the same spec are byte-identical regardless of which
	// caller was the singleflight leader.
	for i := 2; i < callers; i += 2 {
		if !bytes.Equal(responses[0], responses[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, responses[i], responses[0])
		}
	}
}

func TestHTTPConfigureCacheHeaderAndHitBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"spec": %s}`, specBody(t, 0))

	resp1, b1 := postJSON(t, ts.URL+"/v1/configure", body)
	if got := resp1.Header.Get("X-Aarc-Cache"); got != "miss" {
		t.Errorf("first response cache header = %q, want miss", got)
	}
	before := stubSearches.Load()
	resp2, b2 := postJSON(t, ts.URL+"/v1/configure", body)
	if got := resp2.Header.Get("X-Aarc-Cache"); got != "hit" {
		t.Errorf("second response cache header = %q, want hit", got)
	}
	if stubSearches.Load() != before {
		t.Error("cache hit invoked a searcher")
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("hit bytes differ from miss bytes:\n%s\nvs\n%s", b2, b1)
	}

	var rec Recommendation
	if err := json.Unmarshal(b2, &rec); err != nil {
		t.Fatalf("response is not a Recommendation: %v\n%s", err, b2)
	}
	if !strings.HasPrefix(rec.Fingerprint, "sha256:") || len(rec.Assignment) == 0 {
		t.Errorf("malformed recommendation %+v", rec)
	}
}

func TestHTTPConfigureWorkloadShortcut(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/configure", `{"workload": "chatbot"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var rec Recommendation
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Workflow != "chatbot" {
		t.Errorf("workflow = %q", rec.Workflow)
	}
}

func TestHTTPConfigureErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"empty":         `{}`,
		"both":          fmt.Sprintf(`{"workload": "chatbot", "spec": %s}`, specBody(t, 0)),
		"bad workload":  `{"workload": "nope"}`,
		"invalid json":  `{"workload":`,
		"unknown field": `{"workload": "chatbot", "spec": {"bogus": 1}, "x": 2}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/configure", body)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s: got 200: %s", name, b)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON {error}: %s", name, b)
		}
	}
}

func TestHTTPDispatchAndEvaluate(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, b := postJSON(t, ts.URL+"/v1/dispatch", `{"workload": "video-analysis", "scale": 1.4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dispatch status %d: %s", resp.StatusCode, b)
	}
	var d DispatchResult
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.Class != "heavy" {
		t.Errorf("scale 1.4 classified as %q, want heavy", d.Class)
	}

	// The dispatch fingerprint is the class's store entry: fetchable, and
	// a hit for a configure at the class's input scale.
	resp, err := http.Get(ts.URL + "/v1/recommendation/" + d.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var rec Recommendation
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET dispatch fingerprint: status %d, err %v", resp.StatusCode, err)
	}
	if !reflect.DeepEqual(rec.Assignment, d.Assignment) {
		t.Errorf("stored assignment %v differs from the dispatched %v", rec.Assignment, d.Assignment)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/configure", `{"workload": "video-analysis", "input_scale": 1.6}`)
	if got := resp.Header.Get("X-Aarc-Cache"); resp.StatusCode != http.StatusOK || got != "hit" {
		t.Errorf("configure at the class scale: status %d, X-Aarc-Cache %q, want a 200 hit", resp.StatusCode, got)
	}
	resp, b = postJSON(t, ts.URL+"/v1/evaluate",
		fmt.Sprintf(`{"fingerprint": %q, "runs": 3}`, d.Fingerprint))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, b)
	}
	var ev evaluateResponse
	if err := json.Unmarshal(b, &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Runs) != 3 || ev.MeanE2EMS <= 0 {
		t.Errorf("evaluate response %+v", ev)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/evaluate", `{"fingerprint": "sha256:gone", "runs": 1}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint status = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/evaluate",
		fmt.Sprintf(`{"fingerprint": %q, "runs": 2000000000}`, d.Fingerprint))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized runs status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPConfigureBatch(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	before := stubSearches.Load()

	// Four slots: two unique specs, one batch-internal duplicate, one bad
	// workload that must fail only its own slot.
	body := fmt.Sprintf(`{"requests": [
		{"spec": %s},
		{"spec": %s},
		{"spec": %s},
		{"workload": "nope"}
	]}`, specBody(t, 0), specBody(t, 1), specBody(t, 0))
	resp, b := postJSON(t, ts.URL+"/v1/configure:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Results []struct {
			Status         int             `json:"status"`
			Cache          string          `json:"cache"`
			Fingerprint    string          `json:"fingerprint"`
			Recommendation *Recommendation `json:"recommendation"`
			Error          string          `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("batch response is not JSON: %v\n%s", err, b)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4: %s", len(out.Results), b)
	}
	for i := 0; i < 3; i++ {
		r := out.Results[i]
		if r.Status != http.StatusOK || r.Cache != "miss" || r.Recommendation == nil || !strings.HasPrefix(r.Fingerprint, "sha256:") {
			t.Errorf("item %d = %+v, want 200/miss with a recommendation", i, r)
		}
	}
	if out.Results[2].Fingerprint != out.Results[0].Fingerprint {
		t.Error("duplicate item resolved to a different fingerprint")
	}
	if r := out.Results[3]; r.Status != http.StatusBadRequest || r.Error == "" || r.Recommendation != nil {
		t.Errorf("bad item = %+v, want a per-item 400 with an error", r)
	}
	if got := stubSearches.Load() - before; got != 2 {
		t.Errorf("batch of 2 unique specs ran %d searches, want 2", got)
	}

	// The whole batch again: every healthy slot is a cache hit, and the
	// recommendation bytes match what the singleton endpoint serves.
	resp, b = postJSON(t, ts.URL+"/v1/configure:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm batch status %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if out.Results[i].Status != http.StatusOK || out.Results[i].Cache != "hit" {
			t.Errorf("warm item %d = status %d cache %q, want 200/hit", i, out.Results[i].Status, out.Results[i].Cache)
		}
	}
	_, single := postJSON(t, ts.URL+"/v1/configure", fmt.Sprintf(`{"spec": %s}`, specBody(t, 0)))
	var singleRec Recommendation
	if err := json.Unmarshal(single, &singleRec); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Recommendation.Fingerprint != singleRec.Fingerprint {
		t.Error("batch item and singleton configure disagree on the fingerprint")
	}
	_ = svc
}

func TestHTTPConfigureBatchRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"empty":        `{"requests": []}`,
		"missing":      `{}`,
		"invalid json": `{"requests": [`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/configure:batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, b)
		}
	}
	// Oversized batches are rejected as a whole, before any work runs.
	var sb strings.Builder
	sb.WriteString(`{"requests": [`)
	for i := 0; i <= MaxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"workload": "chatbot"}`)
	}
	sb.WriteString(`]}`)
	before := stubSearches.Load()
	resp, b := postJSON(t, ts.URL+"/v1/configure:batch", sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status %d, want 400: %s", resp.StatusCode, b)
	}
	if got := stubSearches.Load() - before; got != 0 {
		t.Errorf("oversized batch still ran %d searches", got)
	}
}

// TestHTTPEvaluateErrorReportsCompletedRuns: when an evaluate batch
// fails, the error body says how many runs completed instead of silently
// discarding the partial progress.
func TestHTTPEvaluateErrorReportsCompletedRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, cb := postJSON(t, ts.URL+"/v1/configure", fmt.Sprintf(`{"spec": %s}`, specBody(t, 0)))
	var rec Recommendation
	if err := json.Unmarshal(cb, &rec); err != nil {
		t.Fatal(err)
	}
	// An assignment missing the "out" group fails inside the runner.
	resp, b := postJSON(t, ts.URL+"/v1/evaluate", fmt.Sprintf(
		`{"fingerprint": %q, "runs": 3, "assignment": {"in": {"cpu": 1, "mem_mb": 512}}}`, rec.Fingerprint))
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("evaluate with a broken assignment returned 200: %s", b)
	}
	var e struct {
		Error         string `json:"error"`
		CompletedRuns *int   `json:"completed_runs"`
	}
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, b)
	}
	if e.Error == "" || e.CompletedRuns == nil {
		t.Errorf("error body missing error/completed_runs: %s", b)
	}
	if e.CompletedRuns != nil && *e.CompletedRuns != 0 {
		t.Errorf("completed_runs = %d, want 0 (the first run fails)", *e.CompletedRuns)
	}
}

func TestHTTPMethodsAndHealthz(t *testing.T) {
	svc, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m struct {
		Methods []struct {
			Name    string `json:"name"`
			Display string `json:"display"`
		} `json:"methods"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, mm := range m.Methods {
		names[mm.Name] = true
	}
	for _, want := range []string{"aarc", "stub", "random", "grid"} {
		if !names[want] {
			t.Errorf("method %q missing from /v1/methods: %s", want, b)
		}
	}

	// Prime one entry so healthz stats are non-trivial.
	postJSON(t, ts.URL+"/v1/configure", `{"workload": "chatbot"}`)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Stats.Entries != 1 {
		t.Errorf("healthz = %s", b)
	}
	_ = svc
}

func TestHTTPFingerprintGetAndDelete(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	before := stubSearches.Load()

	// Configure once to learn the fingerprint.
	_, b := postJSON(t, ts.URL+"/v1/configure", fmt.Sprintf(`{"spec": %s}`, specBody(t, 0)))
	var rec Recommendation
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}

	// The fast path: no spec body, no canonicalization, byte-identical
	// response, always a hit.
	resp, err := http.Get(ts.URL + "/v1/recommendation/" + rec.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint GET status %d: %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Aarc-Cache"); h != "hit" {
		t.Errorf("fingerprint GET cache header = %q, want hit", h)
	}
	if !bytes.Equal(got, b) {
		t.Errorf("fingerprint GET body differs from configure body:\n%s\nvs\n%s", got, b)
	}
	if n := stubSearches.Load() - before; n != 1 {
		t.Errorf("GET path ran %d searches, want 1 (the configure)", n)
	}

	// Unknown fingerprints 404 without searching.
	resp, err = http.Get(ts.URL + "/v1/recommendation/sha256:unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint GET status = %d, want 404", resp.StatusCode)
	}

	// There is no watch stream, not even for a stored fingerprint.
	resp, err = http.Get(ts.URL + "/v1/watch/" + rec.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("watch GET status = %d, want 404", resp.StatusCode)
	}

	// DELETE invalidates: 204, then 404, then a re-configure searches again.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/recommendation/"+rec.Fingerprint, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE status = %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/recommendation/" + rec.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE status = %d, want 404", resp.StatusCode)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/configure", fmt.Sprintf(`{"spec": %s}`, specBody(t, 0)))
	if h := resp2.Header.Get("X-Aarc-Cache"); h != "miss" {
		t.Errorf("configure after DELETE cache header = %q, want miss", h)
	}
	_ = svc
}

func TestHTTPHealthzReportsStoreStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"spec": %s}`, specBody(t, 0))
	postJSON(t, ts.URL+"/v1/configure", body)
	postJSON(t, ts.URL+"/v1/configure", body)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	st := h.Stats
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("healthz counters = %+v, want 1 hit / 1 miss: %s", st, b)
	}
	if st.Store != "memory" || st.Tiers["memory"] != 1 || st.Entries != 1 {
		t.Errorf("healthz store stats = %+v, want memory kind with 1 entry: %s", st, b)
	}
}

func TestHTTPMethodsIncludeVersions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m struct {
		Methods []struct {
			Name    string `json:"name"`
			Version int    `json:"version"`
		} `json:"methods"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, mm := range m.Methods {
		if mm.Version < 1 {
			t.Errorf("method %q reports version %d, want >= 1: %s", mm.Name, mm.Version, b)
		}
	}
}
