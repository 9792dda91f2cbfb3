package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"aarc/internal/testutil"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestHTTPBodyTooLarge: a body one byte past maxRequestBody answers 413,
// with the usual JSON error body, on every POST route — also when the
// body is a short request the route would serve, padded past the limit.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const head, tail = `{"workload":"`, `"}`
	long := head + strings.Repeat("x", maxRequestBody+1-len(head)-len(tail)) + tail
	padded := func(short string) string { return short + strings.Repeat(" ", maxRequestBody+1-len(short)) }
	for path, short := range map[string]string{
		"/v1/configure":       `{"workload":"chatbot"}`,
		"/v1/configure:batch": `{"requests":[{"workload":"chatbot"}]}`,
		"/v1/dispatch":        `{"workload":"video-analysis","scale":1.4}`,
		"/v1/evaluate":        `{"fingerprint":"sha256:0"}`,
	} {
		for shape, body := range map[string]string{"long value": long, "short value, padded": padded(short)} {
			resp, b := postJSON(t, ts.URL+path, body)
			var e struct{ Error string }
			if err := json.Unmarshal(b, &e); resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
				t.Errorf("%s, %s: status %d, body %.200s; want 413 with a JSON error", path, shape, resp.StatusCode, b)
			}
		}
	}
}

// TestHTTPEvaluateBadAssignmentIs400: an assignment the runner cannot run —
// a group left out, a zero CPU — or whose runtime and cost overflow is the
// client's input: 400, with the completed runs counted.
func TestHTTPEvaluateBadAssignmentIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, b := postJSON(t, ts.URL+"/v1/configure", `{"workload": "chatbot"}`)
	var rec Recommendation
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	uniform := func(c ConfigValue) string {
		a := map[string]ConfigValue{}
		for g := range rec.Assignment {
			a[g] = c
		}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for assignment, want := range map[string]string{
		`{"nope": {"cpu": 1, "mem_mb": 512}}`:           "assignment missing group",
		uniform(ConfigValue{CPU: 0, MemMB: 512}):        "invalid config",
		uniform(ConfigValue{CPU: 1e-300, MemMB: 1e308}): "overflows",
	} {
		resp, b := postJSON(t, ts.URL+"/v1/evaluate", fmt.Sprintf(`{"fingerprint": %q, "assignment": %s}`, rec.Fingerprint, assignment))
		var e struct {
			Error         string `json:"error"`
			CompletedRuns *int   `json:"completed_runs"`
		}
		wantRuns := 0
		if want == "overflows" {
			wantRuns = 1
		}
		if err := json.Unmarshal(b, &e); err != nil || resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(e.Error, want) || e.CompletedRuns == nil || *e.CompletedRuns != wantRuns {
			t.Errorf("assignment %s: status %d, body %s; want 400 %q with completed_runs %d", assignment, resp.StatusCode, b, want, wantRuns)
		}
	}
}

// TestHTTPRequestErrorsAre400: an unknown method, a spec the search
// refuses (an SLO its base configuration misses, a base memory under a
// node's floor) and a non-positive dispatch scale are the client's input;
// every configure row is a batch item too.
func TestHTTPRequestErrorsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var items, wants []string
	for _, c := range []struct{ path, body, want string }{
		{"/v1/configure", `{"workload": "chatbot", "method": "nope"}`, `search: unknown method "nope"`},
		{"/v1/configure", `{"workload": "chatbot", "method": "aarc", "slo_ms": 1}`, "core: base configuration misses the SLO ("},
		{"/v1/configure", `{"spec": ` + string(testutil.EncodeSpec(t, testutil.OOMSpec())) + `, "method": "aarc"}`,
			`core: base configuration OOMs at node "solo"; raise the base config`},
		{"/v1/dispatch", `{"workload": "chatbot", "scale": -1}`, "service: Dispatch with non-positive input scale -1"},
		{"/v1/dispatch", `{"workload": "chatbot", "scale": 1, "classes": [{"name": "a", "scale": 0}]}`, `service: class "a" has non-positive scale 0`},
	} {
		resp, b := postJSON(t, ts.URL+c.path, c.body)
		var e struct{ Error string }
		if err := json.Unmarshal(b, &e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(e.Error, c.want) {
			t.Errorf("%s %s: status %d, body %s; want 400 %q", c.path, c.body, resp.StatusCode, b, c.want)
		}
		if c.path == "/v1/configure" {
			items, wants = append(items, c.body), append(wants, c.want)
		}
	}
	_, b := postJSON(t, ts.URL+"/v1/configure:batch", `{"requests": [`+strings.Join(items, ",")+`]}`)
	var out struct{ Results []batchItemResponse }
	if err := json.Unmarshal(b, &out); err != nil || len(out.Results) != len(items) {
		t.Fatalf("batch of %d items: %s (%v)", len(items), b, err)
	}
	for i, r := range out.Results {
		if r.Status != http.StatusBadRequest || !strings.HasPrefix(r.Error, wants[i]) {
			t.Errorf("batch item %s: status %d, error %q; want a per-item 400 %q", items[i], r.Status, r.Error, wants[i])
		}
	}
}

// configureCorpus is the seed set of the body fuzzers: each DecodeCorpus
// spec and its variants as an inline configure body, the knobs in the
// layouts clients send and in ones only encoding/json handles, and
// batches.
func configureCorpus(t testing.TB) []string {
	var out []string
	for _, spec := range testutil.DecodeCorpus(t) {
		for _, v := range testutil.SpecVariants(testutil.EncodeSpec(t, spec)) {
			out = append(out, `{"spec":`+string(v)+`}`)
		}
	}
	spec := string(testutil.EncodeSpec(t, testutil.OneNodeSpec()))
	knobs := `"method":"aarc","seed":7,"slo_ms":1500.5,"max_samples":60,"max_sim_cost_ms":1e6,"input_scale":1.5`
	out = append(out,
		`{"workload":"chatbot",`+knobs+`}`,
		"{\n  \"spec\": "+spec+",\n  "+knobs+"\n}\n",
		`{"workload":"chatbot","spec":`+spec+`}`,
		`{"workload":"chatbot","seed":null}`,
		`{"workload":"chatbot","seed":1.5}`,
		`{"workload":"chatbot","seed":-1}`,
		`{"workload":"chatbot","seed":18446744073709551616}`,
		`{"workload":"chatbot","max_samples":1e3}`,
		`{"workload":"chatbot","max_samples":-3}`,
		`{"workload":"chatbot","slo_ms":1e400}`,
		`{"workload":"chatbot","SEED":3}`,
		`{"workload":"chatbot","slo_ms":1,"slo_ms":0}`,
		`{"workload":"chatbot","extra":{}}`,
		`{"workload":"chatbot"} trailing`,
		`{"workload":"chatbot"}`,
		`{"requests":[{"workload":"chatbot"},{"spec":`+spec+`,"seed":3},{"workload":"nope"}]}`,
		`{"requests":[]}`,
		`{"requests":[null]}`,
		`{"requests":[{"spec":{"name":"x","nodes":5}}]}`,
		`{}`,
		``,
	)
	return out
}

// TestConfigureKeysMatchTags holds the strict reader's configure members
// to the json tags encoding/json reads configureRequest by.
func TestConfigureKeysMatchTags(t *testing.T) {
	var tags []string
	for _, typ := range []reflect.Type{reflect.TypeOf(specSource{}), reflect.TypeOf(requestKnobs{})} {
		for i := 0; i < typ.NumField(); i++ {
			if tag := typ.Field(i).Tag.Get("json"); tag != "" {
				tags = append(tags, strings.Split(tag, ",")[0])
			}
		}
	}
	if !reflect.DeepEqual(tags, configureKeys) {
		t.Errorf("configureKeys %v, json tags %v", configureKeys, tags)
	}
	if tag := reflect.TypeOf(batchConfigureRequest{}).Field(0).Tag.Get("json"); !reflect.DeepEqual([]string{tag}, batchKeys) {
		t.Errorf("batchKeys %v, json tag %q", batchKeys, tag)
	}
}

// FuzzConfigureBody holds the strict configure and batch readers to
// encoding/json: whatever they accept, encoding/json decodes too, to the
// same workload and knobs and to a spec that builds the same — the same
// canonical and EncodeSpec bytes, or the same error.
func FuzzConfigureBody(f *testing.F) {
	for _, body := range configureCorpus(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		b := []byte(body)
		if strict, ok := strictConfigure(b); ok {
			var std configureRequest
			if err := decodeBody(b, &std); err != nil {
				t.Fatalf("strict reader accepted what encoding/json refuses (%v): %q", err, body)
			}
			sameRequest(t, strict, std)
		}
		if strict, ok := strictBatch(b); ok {
			var std batchConfigureRequest
			if err := decodeBody(b, &std); err != nil {
				t.Fatalf("strict reader accepted a batch encoding/json refuses (%v): %q", err, body)
			}
			if len(strict.Requests) != len(std.Requests) || (strict.Requests == nil) != (std.Requests == nil) {
				t.Fatalf("batch of %d items, encoding/json reads %d: %q", len(strict.Requests), len(std.Requests), body)
			}
			for i := range strict.Requests {
				sameRequest(t, strict.Requests[i], std.Requests[i])
			}
		}
	})
}

// sameRequest fails t unless the strict reader's request and encoding/json's
// agree on everything the handler uses.
func sameRequest(t *testing.T, strict, std configureRequest) {
	t.Helper()
	if strict.Workload != std.Workload || !reflect.DeepEqual(strict.requestKnobs, std.requestKnobs) {
		t.Fatalf("strict read %q %+v, encoding/json %q %+v", strict.Workload, strict.requestKnobs, std.Workload, std.requestKnobs)
	}
	if (strict.doc != nil) != (len(std.Spec) > 0) {
		t.Fatalf("strict spec %v, encoding/json spec %q", strict.doc != nil, std.Spec)
	}
	s1, err1 := strict.spec()
	s2, err2 := std.spec()
	if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("spec errors differ: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	for name, render := range map[string]func(*workflow.Spec) ([]byte, error){
		"CanonicalJSON": workflow.CanonicalJSON,
		"EncodeSpec": func(s *workflow.Spec) ([]byte, error) {
			var buf bytes.Buffer
			err := workflow.EncodeSpec(&buf, s)
			return buf.Bytes(), err
		},
	} {
		b1, err1 := render(s1)
		b2, err2 := render(s2)
		if !bytes.Equal(b1, b2) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s differs:\n%s (%v)\n%s (%v)", name, b1, err1, b2, err2)
		}
	}
}

// FuzzHandler drives the four POST routes through NewHandler with
// arbitrary bodies, on a real search with a small budget. Every answer
// must be JSON with an allowed status, every error body an object with a
// non-empty "error", and no handler may panic.
func FuzzHandler(f *testing.F) {
	svc, err := New(Config{MaxSamples: 8, SearchTimeout: 2 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	h := NewHandler(svc)
	body, _, err := svc.ConfigureJSON(context.Background(), workloads.Chatbot(), RequestOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var rec Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		f.Fatal(err)
	}
	routes := []string{"/v1/configure", "/v1/configure:batch", "/v1/dispatch", "/v1/evaluate"}
	const configure, batch, dispatch, evaluate = 0, 1, 2, 3
	for _, b := range configureCorpus(f) {
		f.Add(uint8(configure), b)
		f.Add(uint8(batch), `{"requests":[`+b+`]}`)
	}
	for _, r := range acceptRows(f, func(string) string { return "" }) {
		route := configure
		if r.path == routes[batch] {
			route = batch
		}
		f.Add(uint8(route), r.body)
	}
	f.Add(uint8(configure), `{"workload":"chatbot","slo_ms":1}`)
	f.Add(uint8(configure), `{"spec":`+string(testutil.EncodeSpec(f, testutil.OOMSpec()))+`}`)
	f.Add(uint8(dispatch), `{"workload":"video-analysis","scale":1.4}`)
	f.Add(uint8(dispatch), `{"workload":"chatbot","scale":0.5,"classes":[{"name":"small","scale":0.5},{"name":"big","scale":2}]}`)
	f.Add(uint8(dispatch), `{"workload":"chatbot","scale":-1,"classes":[]}`)
	assignment, err := json.Marshal(rec.Assignment)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(evaluate), fmt.Sprintf(`{"fingerprint":%q,"runs":2}`, rec.Fingerprint))
	f.Add(uint8(evaluate), fmt.Sprintf(`{"fingerprint":%q,"assignment":%s,"runs":3}`, rec.Fingerprint, assignment))
	f.Add(uint8(evaluate), fmt.Sprintf(`{"fingerprint":%q,"assignment":{"nope":{"cpu":1,"mem_mb":512}}}`, rec.Fingerprint))
	f.Add(uint8(evaluate), fmt.Sprintf(`{"fingerprint":%q,"runs":100000}`, rec.Fingerprint))
	f.Add(uint8(evaluate), `{"fingerprint":"sha256:gone"}`)
	f.Add(uint8(configure), `{"workload":"chatbot","method":"nope"}`)
	overflow := map[string]ConfigValue{}
	for g := range rec.Assignment {
		overflow[g] = ConfigValue{CPU: 1e-300, MemMB: 1e308}
	}
	if assignment, err = json.Marshal(overflow); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(evaluate), fmt.Sprintf(`{"fingerprint":%q,"assignment":%s}`, rec.Fingerprint, assignment))

	f.Fuzz(func(t *testing.T, route uint8, body string) {
		path := routes[int(route)%len(routes)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if n := svc.Stats().Panics; n != 0 {
			t.Fatalf("%s %q: %d handler panics recovered", path, body, n)
		}
		code, out := w.Code, w.Body.Bytes()
		if !json.Valid(out) {
			t.Fatalf("%s %q: status %d, body is not JSON: %q", path, body, code, out)
		}
		if code == http.StatusOK {
			if path == routes[batch] {
				// Each item carries the status it would have earned alone.
				var resp struct{ Results []batchItemResponse }
				if err := json.Unmarshal(out, &resp); err != nil {
					t.Fatalf("%s %q: %v: %s", path, body, err, out)
				}
				for i, item := range resp.Results {
					if item.Status != http.StatusOK {
						checkError(t, fmt.Sprintf("%s %q item %d", path, body, i), item.Status, &item.Error)
					}
				}
			}
			return
		}
		var e struct{ Error *string }
		if err := json.Unmarshal(out, &e); err != nil {
			t.Fatalf("%s %q: status %d, body is not a JSON object: %s", path, body, code, out)
		}
		checkError(t, fmt.Sprintf("%s %q", path, body), code, e.Error)
	})
}

// checkError fails t unless an error answer has an allowed status, which
// is never a 500, and a non-empty error text.
func checkError(t *testing.T, what string, code int, text *string) {
	t.Helper()
	if text == nil || *text == "" {
		t.Fatalf("%s: status %d without an error text", what, code)
	}
	switch code {
	case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusGatewayTimeout:
	default:
		t.Fatalf("%s: status %d: %s", what, code, *text)
	}
}
