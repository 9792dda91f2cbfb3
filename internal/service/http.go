package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"aarc/internal/inputaware"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// The HTTP surface of the serving layer, mounted by cmd/aarcd and testable
// through net/http/httptest:
//
//	GET    /healthz                    liveness + cache/store stats
//	GET    /readyz                     readiness: 503 while draining or breaker-open
//	GET    /v1/methods                 the search method registry (+versions)
//	POST   /v1/configure               spec+options -> Recommendation (cache-aware)
//	POST   /v1/configure:batch         a list of configure requests as one admission
//	GET    /v1/recommendation/{fp}     fingerprint-addressed fast path (no spec body)
//	DELETE /v1/recommendation/{fp}     explicit invalidation across all store tiers
//	GET    /v1/recommendations         listing of what the store holds
//	POST   /v1/dispatch                input-aware request -> class + configuration
//	POST   /v1/evaluate                what-if runs against a configured fingerprint
//
// Configure and Dispatch responses carry an "X-Aarc-Cache: hit|miss"
// header; the body bytes for one fingerprint are identical either way —
// and identical to the fingerprint GET — so clients may byte-compare
// responses. The GET path never canonicalizes a spec: it is a store
// lookup, nothing more, and 404s rather than searching.

// maxRequestBody bounds request JSON (a spec with thousands of nodes fits
// comfortably; this guards against unbounded uploads, not real use).
const maxRequestBody = 4 << 20

// NewHandler mounts the service's HTTP API.
func NewHandler(s *Service) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"uptime_s": time.Since(start).Seconds(),
			"stats":    s.Stats(),
		})
	})
	// Liveness (/healthz) and readiness (/readyz) split deliberately: a
	// degraded service — disk tier down, breaker open, memory-only
	// serving — is alive (don't restart it; its memory cache is the only
	// warm copy) but not ready (route new traffic to healthy peers).
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ok, reason := s.Ready()
		if ok {
			writeJSON(w, http.StatusOK, map[string]any{
				"status":  "ready",
				"breaker": s.BreakerState(),
			})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "degraded",
			"reason":  reason,
			"breaker": s.BreakerState(),
		})
	})
	// The registry is frozen after init, so the name->display table is
	// computed once at mount time rather than per request.
	type method struct {
		Name    string `json:"name"`
		Display string `json:"display"`
		Version int    `json:"version"`
	}
	var methods []method
	for _, name := range s.Methods() {
		m := method{Name: name, Display: name}
		if sr, err := search.New(name, 0); err == nil {
			m.Display = sr.Name()
		}
		if v, err := search.Version(name); err == nil {
			m.Version = v
		}
		methods = append(methods, m)
	}
	mux.HandleFunc("GET /v1/methods", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"methods": methods})
	})
	mux.HandleFunc("POST /v1/configure", func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(w, r)
		if err != nil {
			writeError(w, bodyStatus(err), err)
			return
		}
		req, err := decodeConfigure(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		k, err := s.keyRequest(req.specSource, req.options())
		if err != nil {
			writeServiceError(s, w, err)
			return
		}
		body, hit, err := s.serve(r.Context(), k)
		if err != nil {
			writeServiceError(s, w, err)
			return
		}
		writeCached(w, body, hit)
	})
	mux.HandleFunc("POST /v1/configure:batch", func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(w, r)
		if err != nil {
			writeError(w, bodyStatus(err), err)
			return
		}
		req, err := decodeBatch(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(req.Requests) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("batch: empty \"requests\""))
			return
		}
		if len(req.Requests) > MaxBatchItems {
			writeError(w, http.StatusBadRequest, ErrBatchTooLarge)
			return
		}
		// A bad item keeps its slot (a per-item 400) without failing the
		// batch.
		results, err := s.configureBatch(r.Context(), len(req.Requests), func(i int) (key, error) {
			return s.keyRequest(req.Requests[i].specSource, req.Requests[i].options())
		})
		if err != nil {
			writeServiceError(s, w, err)
			return
		}
		out := batchConfigureResponse{Results: make([]batchItemResponse, len(results))}
		for i := range results {
			item := &out.Results[i]
			if results[i].Err != nil {
				item.Status = statusOf(results[i].Err)
				item.Error = results[i].Err.Error()
				continue
			}
			item.Status = http.StatusOK
			item.Cache = cacheHeader(results[i].CacheHit)
			item.Fingerprint = results[i].Fingerprint
			item.Recommendation = json.RawMessage(results[i].Body)
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/recommendation/{fp}", func(w http.ResponseWriter, r *http.Request) {
		body, err := s.RecommendationJSON(r.PathValue("fp"))
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		writeCached(w, body, true)
	})
	mux.HandleFunc("DELETE /v1/recommendation/{fp}", func(w http.ResponseWriter, r *http.Request) {
		existed, err := s.Invalidate(r.PathValue("fp"))
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		if !existed {
			writeError(w, http.StatusNotFound, ErrUnknownFingerprint)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/recommendations", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"recommendations": s.Recommendations(),
		})
	})
	mux.HandleFunc("POST /v1/dispatch", func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(w, r)
		if err != nil {
			writeError(w, bodyStatus(err), err)
			return
		}
		var req dispatchRequest
		if err := decodeBody(raw, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		spec, err := req.spec()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		var classes []inputaware.Class
		for _, c := range req.Classes {
			classes = append(classes, inputaware.Class{Name: c.Name, Scale: c.Scale})
		}
		res, hit, err := s.Dispatch(r.Context(), spec, classes, req.Scale, req.options())
		if err != nil {
			writeServiceError(s, w, err)
			return
		}
		w.Header().Set("X-Aarc-Cache", cacheHeader(hit))
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(w, r)
		if err != nil {
			writeError(w, bodyStatus(err), err)
			return
		}
		var req evaluateRequest
		if err := decodeBody(raw, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Fingerprint == "" {
			writeError(w, http.StatusBadRequest, errors.New("evaluate: fingerprint required (configure first)"))
			return
		}
		var a resources.Assignment
		if len(req.Assignment) > 0 {
			a = make(resources.Assignment, len(req.Assignment))
			for g, c := range req.Assignment {
				a[g] = resources.Config{CPU: c.CPU, MemMB: c.MemMB}
			}
		}
		results, err := s.Evaluate(req.Fingerprint, a, req.Runs)
		if err != nil {
			// Evaluate may have completed some runs before failing; the
			// partial results are dropped, but the count tells the client
			// how far the batch got (always 0 today — per-run errors are
			// deterministic for a fixed assignment — but the contract is
			// explicit rather than silently lossy).
			writeJSON(w, statusOf(err), map[string]any{
				"error":          err.Error(),
				"completed_runs": len(results),
			})
			return
		}
		out := evaluateResponse{Fingerprint: req.Fingerprint}
		for _, res := range results {
			out.Runs = append(out.Runs, FinalResult{E2EMS: res.E2EMS, Cost: res.Cost, OOM: res.OOM})
			out.MeanE2EMS += res.E2EMS
			out.MeanCost += res.Cost
		}
		if n := float64(len(out.Runs)); n > 0 {
			out.MeanE2EMS /= n
			out.MeanCost /= n
		}
		// A vanishing CPU share or an astronomic memory size overflows the
		// simulated runtime or cost, which JSON cannot carry.
		if !finite(out.MeanE2EMS) || !finite(out.MeanCost) {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":          "evaluate: the assignment's runtime or cost overflows",
				"completed_runs": len(results),
			})
			return
		}
		writeJSON(w, http.StatusOK, out)
	})
	return recoverPanics(s, mux)
}

// recoverPanics is the outermost middleware: a panicking handler — or a
// panicking searcher whose panic escapes the service layer — answers
// 500 with a JSON error instead of killing the connection with an empty
// reply, and is counted in Stats.Panics. http.ErrAbortHandler is
// re-raised: it is net/http's own control flow for deliberately
// aborting a response, not a failure. If the handler had already
// started writing its response the 500 header cannot be sent; the
// recovery (and the counter) still applies.
func recoverPanics(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Add(1)
			log.Printf("service: recovered panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// specSource is the shared spec half of the POST bodies: exactly one of a
// built-in workload name or an inline spec in the DecodeSpec JSON format.
// The inline spec is the strict reader's doc, or when encoding/json read
// the body, its raw bytes.
type specSource struct {
	Workload string          `json:"workload,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	doc      *workflow.Doc
}

func (ss specSource) spec() (*workflow.Spec, error) {
	switch {
	case ss.Workload != "" && (ss.doc != nil || len(ss.Spec) > 0):
		return nil, errors.New("request: give either \"workload\" or \"spec\", not both")
	case ss.Workload != "":
		return workloads.ByName(ss.Workload)
	case ss.doc != nil:
		return ss.doc.Spec()
	case len(ss.Spec) > 0:
		return workflow.DecodeSpec(bytes.NewReader(ss.Spec))
	default:
		return nil, errors.New("request: missing \"workload\" or \"spec\"")
	}
}

// requestKnobs is the shared options half of the POST bodies.
type requestKnobs struct {
	Method       string  `json:"method,omitempty"`
	Seed         *uint64 `json:"seed,omitempty"`
	SLOMS        float64 `json:"slo_ms,omitempty"`
	MaxSamples   int     `json:"max_samples,omitempty"`
	MaxSimCostMS float64 `json:"max_sim_cost_ms,omitempty"`
	InputScale   float64 `json:"input_scale,omitempty"`
}

func (rk requestKnobs) options() RequestOptions {
	return RequestOptions{
		Method:       rk.Method,
		Seed:         rk.Seed,
		SLOMS:        rk.SLOMS,
		MaxSamples:   rk.MaxSamples,
		MaxSimCostMS: rk.MaxSimCostMS,
		InputScale:   rk.InputScale,
	}
}

type configureRequest struct {
	specSource
	requestKnobs
}

// configureKeys are configureRequest's members, promoted from its two
// halves.
var configureKeys = []string{"workload", "spec", "method", "seed", "slo_ms", "max_samples", "max_sim_cost_ms", "input_scale"}

// read reads a configure object with the strict reader.
func (req *configureRequest) read(sr *workflow.StrictReader) {
	var seen uint64
	sr.Expect('{')
	for n := 0; sr.More('}', n); n++ {
		switch sr.Key(&seen, configureKeys) {
		case "workload":
			req.Workload = sr.Text()
		case "spec":
			req.doc = sr.Spec()
		case "method":
			req.Method = sr.Text()
		case "seed":
			seed := sr.Uint()
			req.Seed = &seed
		case "slo_ms":
			req.SLOMS = sr.Float()
		case "max_samples":
			req.MaxSamples = sr.Int()
		case "max_sim_cost_ms":
			req.MaxSimCostMS = sr.Float()
		case "input_scale":
			req.InputScale = sr.Float()
		}
	}
}

// batchConfigureRequest is the wire form of POST /v1/configure:batch: a
// list of ordinary configure requests, answered as one admission.
type batchConfigureRequest struct {
	Requests []configureRequest `json:"requests"`
}

var batchKeys = []string{"requests"}

// strictConfigure reads a configure body in one pass with the strict
// reader; ok is false when the reader declined.
func strictConfigure(body []byte) (req configureRequest, ok bool) {
	sr := workflow.NewStrictReader(body)
	req.read(sr)
	return req, sr.End()
}

// strictBatch is strictConfigure for a batch body.
func strictBatch(body []byte) (req batchConfigureRequest, ok bool) {
	sr := workflow.NewStrictReader(body)
	var seen uint64
	sr.Expect('{')
	for n := 0; sr.More('}', n); n++ {
		if sr.Key(&seen, batchKeys) == "requests" {
			req.Requests = []configureRequest{}
			sr.Expect('[')
			for m := 0; sr.More(']', m); m++ {
				req.Requests = append(req.Requests, configureRequest{})
				req.Requests[m].read(sr)
			}
		}
	}
	return req, sr.End()
}

// decodeConfigure decodes a configure body: with the strict reader, or
// when it declines, with encoding/json on the same bytes.
func decodeConfigure(body []byte) (configureRequest, error) {
	if req, ok := strictConfigure(body); ok {
		return req, nil
	}
	var req configureRequest
	return req, decodeBody(body, &req)
}

// decodeBatch is decodeConfigure for a batch body.
func decodeBatch(body []byte) (batchConfigureRequest, error) {
	if req, ok := strictBatch(body); ok {
		return req, nil
	}
	var req batchConfigureRequest
	return req, decodeBody(body, &req)
}

// batchItemResponse is one slot of a batch response, index-aligned with
// the request. Status is the HTTP status the item would have earned as a
// singleton request; the envelope itself is 200 whenever the batch was
// well-formed. Recommendation carries the stored pre-marshaled bytes, so
// an item's recommendation JSON is identical to the singleton response
// for the same fingerprint.
type batchItemResponse struct {
	Status         int             `json:"status"`
	Cache          string          `json:"cache,omitempty"` // hit|miss, like X-Aarc-Cache
	Fingerprint    string          `json:"fingerprint,omitempty"`
	Recommendation json.RawMessage `json:"recommendation,omitempty"`
	Error          string          `json:"error,omitempty"`
}

type batchConfigureResponse struct {
	Results []batchItemResponse `json:"results"`
}

type dispatchRequest struct {
	specSource
	requestKnobs
	Scale   float64 `json:"scale"`
	Classes []struct {
		Name  string  `json:"name"`
		Scale float64 `json:"scale"`
	} `json:"classes,omitempty"`
}

type evaluateRequest struct {
	Fingerprint string                 `json:"fingerprint"`
	Assignment  map[string]ConfigValue `json:"assignment,omitempty"`
	Runs        int                    `json:"runs,omitempty"`
}

type evaluateResponse struct {
	Fingerprint string        `json:"fingerprint"`
	Runs        []FinalResult `json:"runs"`
	MeanE2EMS   float64       `json:"mean_e2e_ms"`
	MeanCost    float64       `json:"mean_cost"`
}

// readBody reads a whole request body of at most maxRequestBody bytes, in
// one allocation when the client sent its length. Every POST route reads
// through it, so a body past the limit answers 413 wherever its JSON ends.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxRequestBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody)); err != nil {
		return nil, fmt.Errorf("request: decoding body: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBody decodes a body read by readBody: encoding/json's first
// value, the rest ignored.
func decodeBody(body []byte, dst any) error {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(dst); err != nil {
		return fmt.Errorf("request: decoding body: %w", err)
	}
	return nil
}

// bodyStatus is the status for a body that could not be read or decoded:
// 413 past maxRequestBody, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeCached writes a pre-marshaled body: hit and miss responses for one
// fingerprint are byte-identical, differing only in the cache header.
func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Aarc-Cache", cacheHeader(hit))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeServiceError maps a service-layer error onto the wire, attaching
// the Retry-After hint when the request was shed by the admission cap —
// a 429 without a retry hint just teaches clients to hammer.
func writeServiceError(s *Service, w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
	}
	writeError(w, statusOf(err), err)
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownFingerprint):
		return http.StatusNotFound
	case errors.Is(err, ErrTooManyRuns), errors.Is(err, ErrBatchTooLarge), errors.Is(err, errNilSpec),
		errors.As(err, new(requestError)), errors.As(err, new(workflow.AssignmentError)),
		errors.As(err, new(search.InfeasibleError)):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}
