package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aarc"
)

// op is a request kind; its route names the handler it reaches.
type op int

const (
	opConfigure op = iota
	opGet
	opDelete
	opEvaluate
	opBatch
)

var routes = [...]string{"configure", "rec_get", "rec_delete", "evaluate", "batch"}

func (o op) route() string { return routes[o] }

func (o op) method() string {
	switch o {
	case opGet:
		return http.MethodGet
	case opDelete:
		return http.MethodDelete
	default:
		return http.MethodPost
	}
}

// request is one generated request and what its response must be.
type request struct {
	op   op
	path string // empty for configure: /v1/configure
	body []byte

	fix   *entry      // configure hit or GET: the response must be this entry's bytes
	spec  *specBody   // configure of a new spec: a miss whose assignment covers its groups
	runs  int         // evaluate: the number of results
	items []batchItem // batch: one expectation per item

	created *created // configure: announces the fingerprint it stored
	target  *created // DELETE: removes the entry this configure created

	// Written by the sender that handles the request, read once its phase
	// has ended: every recommendation the response carried, with its spec.
	served []served
}

// created is the entry a configure of a new spec stores. done closes once
// the configure has answered; fp is set when it succeeded.
type created struct {
	n    int // the configure's ordinal among its workload's churned specs
	done chan struct{}
	fp   string
}

// batchItem is one item of a configure batch: a fixture hit, a new spec,
// or a duplicate of the earlier item dupOf (-1: not a duplicate).
type batchItem struct {
	fix   *entry
	spec  *specBody
	dupOf int
}

// served is a spec together with the recommendation served for it.
type served struct {
	body *specBody
	rec  *aarc.ServiceRecommendation
}

const benchIDHeader = "X-Bench-Id"

// client sends requests over one shared transport with at most
// runtime.NumCPU() connections, and checks every response.
type client struct {
	base    string
	hc      *http.Client
	tr      *http.Transport
	senders int
	rec     *recorder // nil in untraced runs

	mu       sync.Mutex
	failures []string // the first few failure messages
}

func newClient(base string, rec *recorder) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr, senders: n, rec: rec}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 8 {
		c.failures = append(c.failures, err.Error())
	}
}

// do sends req, reads its whole response and checks it. sent and done
// bracket the round trip.
func (c *client) do(req *request) (sent, done time.Time, err error) {
	if req.created != nil {
		defer close(req.created.done)
	}
	path := req.path
	switch {
	case req.target != nil:
		// A client deletes only what it saw created.
		<-req.target.done
		if req.target.fp == "" {
			return time.Now(), time.Now(), errors.New("DELETE: the configure that creates its entry failed")
		}
		path = "/v1/recommendation/" + req.target.fp
	case path == "":
		path = "/v1/configure"
	}
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.op.method(), c.base+path, body)
	if err != nil {
		return time.Now(), time.Now(), err
	}
	var id uint64
	if c.rec != nil {
		id = c.rec.newID()
		hr.Header.Set(benchIDHeader, strconv.FormatUint(id, 10))
	}
	sent = time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return sent, time.Now(), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if c.rec != nil {
		c.rec.clientDone(req.op.route(), id, sent, done)
	}
	if err != nil {
		return sent, done, err
	}
	if err := check(req, resp, b); err != nil {
		return sent, done, fmt.Errorf("%s %s: %w", req.op.method(), path, err)
	}
	return sent, done, nil
}

// check verifies one response against its request's expectation.
func check(req *request, resp *http.Response, body []byte) error {
	want := http.StatusOK
	if req.op == opDelete {
		want = http.StatusNoContent
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d, want %d: %.200s", resp.StatusCode, want, body)
	}
	switch req.op {
	case opConfigure, opGet:
		wantCache := "miss"
		if req.fix != nil {
			wantCache = "hit"
		}
		if got := resp.Header.Get("X-Aarc-Cache"); got != wantCache {
			return fmt.Errorf("X-Aarc-Cache %q, want %q", got, wantCache)
		}
		if req.fix != nil {
			if !bytes.Equal(body, req.fix.wire) {
				return errors.New("hit differs from the bytes the fixture configured")
			}
			req.served = append(req.served, served{body: req.fix.body, rec: &req.fix.rec})
			return nil
		}
		rec := new(aarc.ServiceRecommendation)
		if err := json.Unmarshal(body, rec); err != nil {
			return err
		}
		if err := covers(rec, req.spec.groups); err != nil {
			return err
		}
		req.served = append(req.served, served{body: req.spec, rec: rec})
		if req.created != nil {
			req.created.fp = rec.Fingerprint
		}
	case opEvaluate:
		var out struct {
			Runs []json.RawMessage `json:"runs"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if len(out.Runs) != req.runs {
			return fmt.Errorf("%d runs, want %d", len(out.Runs), req.runs)
		}
	case opBatch:
		return checkBatch(req, body)
	}
	return nil
}

func checkBatch(req *request, body []byte) error {
	var out struct {
		Results []struct {
			Status         int             `json:"status"`
			Cache          string          `json:"cache"`
			Fingerprint    string          `json:"fingerprint"`
			Recommendation json.RawMessage `json:"recommendation"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if len(out.Results) != len(req.items) {
		return fmt.Errorf("%d batch results, want %d", len(out.Results), len(req.items))
	}
	for i, it := range req.items {
		r := out.Results[i]
		wantCache := "miss"
		if it.fix != nil {
			wantCache = "hit"
		}
		if r.Status != http.StatusOK || r.Cache != wantCache {
			return fmt.Errorf("batch item %d: status %d cache %q, want 200 %q", i, r.Status, r.Cache, wantCache)
		}
		switch {
		case it.fix != nil:
			// The envelope re-indents each recommendation; compare compacted.
			var got, want bytes.Buffer
			if err := json.Compact(&got, r.Recommendation); err != nil {
				return err
			}
			if err := json.Compact(&want, it.fix.wire); err != nil {
				return err
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				return fmt.Errorf("batch item %d differs from the fixture's bytes", i)
			}
			req.served = append(req.served, served{body: it.fix.body, rec: &it.fix.rec})
		case it.dupOf >= 0:
			first := out.Results[it.dupOf]
			if r.Fingerprint != first.Fingerprint || !bytes.Equal(r.Recommendation, first.Recommendation) {
				return fmt.Errorf("batch item %d differs from its duplicate, item %d", i, it.dupOf)
			}
		default:
			rec := new(aarc.ServiceRecommendation)
			if err := json.Unmarshal(r.Recommendation, rec); err != nil {
				return err
			}
			if rec.Fingerprint != r.Fingerprint {
				return fmt.Errorf("batch item %d: fingerprint %s, recommendation says %s", i, r.Fingerprint, rec.Fingerprint)
			}
			if err := covers(rec, it.spec.groups); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
			req.served = append(req.served, served{body: it.spec, rec: rec})
		}
	}
	return nil
}

// covers checks that a recommendation configures exactly the spec's
// function groups, each with a positive CPU and memory.
func covers(rec *aarc.ServiceRecommendation, groups []string) error {
	if len(rec.Assignment) != len(groups) {
		return fmt.Errorf("assignment has %d groups, spec has %d", len(rec.Assignment), len(groups))
	}
	for _, g := range groups {
		c, ok := rec.Assignment[g]
		if !ok || c.CPU <= 0 || c.MemMB <= 0 {
			return fmt.Errorf("assignment misses group %q", g)
		}
	}
	return nil
}

// sample is one open-loop request's timing.
type sample struct {
	lat  time.Duration // due time to last body byte
	rtt  time.Duration // send to last body byte
	late time.Duration // how far the dispatcher overshot the due time
	err  error
}

// open runs an open loop: one dispatcher hands each request to the
// senders at its due time (offsets from now), whether or not earlier
// requests have completed, and each request is timed from its due time,
// so a stall counts against every request it delays.
func (c *client) open(reqs []*request, due []time.Duration) []sample {
	out := make([]sample, len(reqs))
	// Sized to the schedule, so the dispatcher never blocks on busy senders.
	ch := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < c.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				sent, done, err := c.do(reqs[i])
				out[i].lat = done.Sub(start.Add(due[i]))
				out[i].rtt = done.Sub(sent)
				out[i].err = err
				if err != nil {
					c.fail(err)
				}
			}
		}()
	}
	for i := range reqs {
		at := start.Add(due[i])
		sleepUntil(at)
		out[i].late = time.Since(at)
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// closed runs a closed loop for d: every sender sends its next request as
// soon as its previous one completes, until d has passed or the pool of
// requests ran out. It returns the requests attempted, the successes, and
// how long the loop ran, until its last request completed.
func (c *client) closed(reqs []*request, d time.Duration) (attempted, ok int, ran time.Duration) {
	var next, succeeded atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < c.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if _, _, err := c.do(reqs[i]); err != nil {
					c.fail(err)
					continue
				}
				succeeded.Add(1)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), len(reqs)), int(succeeded.Load()), time.Since(start)
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than on a
// runtime timer: the runtime's timers wake the idle poller with
// millisecond granularity, which would add up to a millisecond of
// dispatcher lateness to every open-loop request.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
