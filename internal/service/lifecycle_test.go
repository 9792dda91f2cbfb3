package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aarc/internal/event"
	"aarc/internal/search"
	"aarc/internal/store"
)

// Two independently-gated methods for the refresh-priority test: the
// channels carry no identity, so the test tells a refresh search apart
// from a foreground one by which method it was configured under.
var (
	lgateStarted  chan struct{}
	lgateRelease  chan struct{}
	lgate2Started chan struct{}
	lgate2Release chan struct{}
)

type lgateSearcher struct{}

func (lgateSearcher) Name() string { return "LGate" }

func (lgateSearcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	lgateStarted <- struct{}{}
	<-lgateRelease
	return stubSearcher{}.Search(ctx, ev, opts)
}

type lgate2Searcher struct{}

func (lgate2Searcher) Name() string { return "LGate2" }

func (lgate2Searcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	lgate2Started <- struct{}{}
	<-lgate2Release
	return stubSearcher{}.Search(ctx, ev, opts)
}

// rerunPanics switches the "rerun" method from stub to panicky, so a test
// configures an entry cleanly and then makes its refresh explode.
var rerunPanics atomic.Bool

func init() {
	search.Register("lgate", 1, func(seed uint64) search.Searcher { return lgateSearcher{} })
	search.Register("lgate2", 1, func(seed uint64) search.Searcher { return lgate2Searcher{} })
	search.Register("rerun", 1, func(seed uint64) search.Searcher {
		if rerunPanics.Load() {
			return panickySearcher{}
		}
		return stubSearcher{}
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDriftRefreshSwapEndToEnd is the acceptance path: a configured
// entry is flagged by the drift monitor (threshold set so any latency
// counts as stale), re-searched in the background, and atomically
// swapped — while concurrent readers observe neither a miss nor a torn
// entry, and a watch subscriber receives the "refreshed" event.
func TestDriftRefreshSwapEndToEnd(t *testing.T) {
	svc := stubService(t, Config{
		DriftInterval:  time.Hour, // sweeps driven manually via DriftSweep
		DriftThreshold: 1e-9,      // any measured latency counts as stale
	})
	spec := testSpec(t, 0)
	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp := rec.Fingerprint

	events, cancel, err := svc.Watch(context.Background(), fp)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Readers hammer the fingerprint for the whole refresh: the swap
	// contract is that they always get a complete entry, old or new.
	stop := make(chan struct{})
	var readerErr atomic.Value
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := svc.RecommendationJSON(fp)
				if err != nil {
					readerErr.Store(fmt.Errorf("reader observed a miss mid-refresh: %w", err))
					return
				}
				var got Recommendation
				if err := json.Unmarshal(body, &got); err != nil {
					readerErr.Store(fmt.Errorf("reader observed torn bytes: %w", err))
					return
				}
				if got.Fingerprint != fp {
					readerErr.Store(fmt.Errorf("reader observed foreign entry %s", got.Fingerprint))
					return
				}
			}
		}()
	}

	svc.DriftSweep(context.Background())

	select {
	case ev := <-events:
		if ev.Kind != event.KindRefreshed {
			t.Fatalf("first watched event = %q, want %q", ev.Kind, event.KindRefreshed)
		}
		if ev.Fingerprint != fp {
			t.Fatalf("event fingerprint = %s, want %s", ev.Fingerprint, fp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no refreshed event after the sweep flagged the entry")
	}

	waitFor(t, "refresh counter", func() bool { return svc.Stats().Refreshes == 1 })
	close(stop)
	readers.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.DriftChecks == 0 {
		t.Fatal("drift_checks = 0 after a sweep")
	}
	if st.RefreshFails != 0 {
		t.Fatalf("refresh_failures = %d", st.RefreshFails)
	}
	// The refreshed entry still serves, identical search identity and
	// seed, so the bytes match the original deterministic encoding.
	body, err := svc.RecommendationJSON(fp)
	if err != nil {
		t.Fatal(err)
	}
	var got Recommendation
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != fp {
		t.Fatalf("post-refresh fingerprint = %s, want %s", got.Fingerprint, fp)
	}
}

// TestRefreshPanicKeepsServing: a search that panics in a background
// refresh is a counted refresh failure, not a dead process: the old
// entry still serves, and the worker goes on to the next stale entry.
func TestRefreshPanicKeepsServing(t *testing.T) {
	svc := stubService(t, Config{DriftInterval: time.Hour, DriftThreshold: 1e-9})
	t.Cleanup(func() { rerunPanics.Store(false) })
	ro, ctx := RequestOptions{Method: "rerun"}, context.Background()
	body, _, err := svc.ConfigureJSON(ctx, testSpec(t, 0), ro)
	if err != nil {
		t.Fatal(err)
	}
	var rec Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}

	rerunPanics.Store(true)
	svc.DriftSweep(ctx)
	waitFor(t, "the panicked refresh to be counted", func() bool { return svc.Stats().RefreshFails == 1 })
	rerunPanics.Store(false)
	if got, err := svc.RecommendationJSON(rec.Fingerprint); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("after a panicked refresh the entry serves %q, %v; want the original bytes", got, err)
	}

	if _, _, err := svc.Configure(ctx, testSpec(t, 1), ro); err != nil {
		t.Fatal(err)
	}
	svc.DriftSweep(ctx)
	waitFor(t, "the next stale entry to be refreshed", func() bool { return svc.Stats().Refreshes == 1 })
	if got := svc.Stats().RefreshFails; got != 1 {
		t.Fatalf("refresh_failures = %d, want 1", got)
	}
}

// TestEventsOnlyForSuccessfulWrites: the service publishes where it
// writes the store, and only when the write succeeded — a failed Put or
// Delete and a store hit publish nothing.
func TestEventsOnlyForSuccessfulWrites(t *testing.T) {
	faulty := store.NewFaulty(store.NewMemory(16), store.FaultConfig{})
	svc := stubService(t, Config{Store: faulty})
	spec, ctx := testSpec(t, 0), context.Background()
	events, cancel, err := svc.Watch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Publishing is synchronous, so after each call the channel holds
	// exactly the events that call published.
	published := func() string {
		var kinds []string
		for {
			select {
			case ev := <-events:
				kinds = append(kinds, string(ev.Kind))
			default:
				return strings.Join(kinds, ",")
			}
		}
	}

	faulty.FailAll(nil)
	rec, _, err := svc.Configure(ctx, spec, RequestOptions{})
	if err != nil {
		t.Fatalf("Configure during a store outage: %v", err)
	}
	if svc.Stats().StoreErrors == 0 {
		t.Fatal("a failed Put left store_errors at 0")
	}
	if got := published(); got != "" {
		t.Fatalf("a failed Put published %q", got)
	}

	faulty.Recover()
	if _, hit, err := svc.Configure(ctx, spec, RequestOptions{}); err != nil || hit {
		t.Fatalf("post-recovery Configure: hit=%v err=%v", hit, err)
	}
	if _, hit, err := svc.Configure(ctx, spec, RequestOptions{}); err != nil || !hit {
		t.Fatalf("repeat Configure: hit=%v err=%v", hit, err)
	}
	if got := published(); got != "put" {
		t.Fatalf("a stored miss and a hit published %q, want put", got)
	}

	faulty.FailAll(nil)
	if _, err := svc.Invalidate(rec.Fingerprint); err == nil {
		t.Fatal("Invalidate over a failing Delete returned no error")
	}
	if got := published(); got != "" {
		t.Fatalf("a failed Delete published %q", got)
	}
	faulty.Recover()
	if existed, err := svc.Invalidate(rec.Fingerprint); err != nil || !existed {
		t.Fatalf("Invalidate: existed=%v err=%v", existed, err)
	}
	if got := published(); got != "invalidated" {
		t.Fatalf("Invalidate published %q, want invalidated", got)
	}
}

// TestWatchSeesPutAndInvalidated covers the other two event kinds, and
// that invalidating an absent fingerprint publishes nothing.
func TestWatchSeesPutAndInvalidated(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)

	// Subscribe to everything: the fingerprint isn't known yet.
	events, cancel, err := svc.Watch(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := <-events
	if ev.Kind != event.KindPut || ev.Fingerprint != rec.Fingerprint {
		t.Fatalf("event = %+v, want put %s", ev, rec.Fingerprint)
	}

	existed, err := svc.Invalidate(rec.Fingerprint)
	if err != nil || !existed {
		t.Fatalf("Invalidate: existed=%v err=%v", existed, err)
	}
	ev = <-events
	if ev.Kind != event.KindInvalidated || ev.Fingerprint != rec.Fingerprint {
		t.Fatalf("event = %+v, want invalidated %s", ev, rec.Fingerprint)
	}

	// Absent fingerprint: no Delete reaches the store, no event.
	existed, err = svc.Invalidate(rec.Fingerprint)
	if err != nil || existed {
		t.Fatalf("second Invalidate: existed=%v err=%v", existed, err)
	}
	select {
	case ev := <-events:
		t.Fatalf("invalidating an absent fingerprint published %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSlowWatcherDropsWithoutBlocking: a subscriber that never drains
// loses events — counted — while the publishing mutation path never
// blocks on it.
func TestSlowWatcherDropsWithoutBlocking(t *testing.T) {
	svc := stubService(t, Config{WatchBuffer: 1})
	spec := testSpec(t, 0)

	_, cancel, err := svc.Watch(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Each round is one put + one invalidated; with a buffer of one,
	// nearly all of them drop. Configure must keep completing promptly —
	// if publish blocked on the full subscriber, this loop would hang.
	const rounds = 16
	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := svc.Invalidate(rec.Fingerprint); err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.Configure(context.Background(), spec, RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := svc.Stats().EventsDropped; dropped == 0 {
		t.Fatal("events_dropped = 0 after flooding a one-slot subscriber")
	}
}

// TestRefreshYieldsToForegroundMiss proves the admission priority: with
// one admission slot, a pending background refresh must not take it
// while a foreground miss is waiting — the foreground search starts
// first, every time, and the refresh runs only once the slot is idle.
func TestRefreshYieldsToForegroundMiss(t *testing.T) {
	lgateStarted = make(chan struct{}, 8)
	lgateRelease = make(chan struct{}, 8)
	lgate2Started = make(chan struct{}, 8)
	lgate2Release = make(chan struct{}, 8)

	svc := stubService(t, Config{
		MaxConcurrentSearches: 1,
		DriftInterval:         time.Hour,
		DriftThreshold:        1e-9,
	})

	// Entry A, configured under the gated "lgate2" method: its eventual
	// background refresh re-runs lgate2, so lgate2Started firing later
	// identifies the refresh search.
	specA := testSpec(t, 0)
	done := make(chan error, 1)
	go func() {
		_, _, err := svc.Configure(context.Background(), specA, RequestOptions{Method: "lgate2"})
		done <- err
	}()
	<-lgate2Started
	lgate2Release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Foreground search F1 (lgate) takes the only admission slot and
	// parks in flight.
	f1done := make(chan error, 1)
	go func() {
		_, _, err := svc.Configure(context.Background(), testSpec(t, 1), RequestOptions{Method: "lgate"})
		f1done <- err
	}()
	<-lgateStarted

	// Flag A stale: the refresh worker picks it up and starts polling
	// for a slot it cannot have.
	svc.DriftSweep(context.Background())

	// Foreground search F2 (lgate) arrives and waits for the slot. A
	// deadline makes acquireSearch wait instead of shedding.
	f2ctx, f2cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer f2cancel()
	f2done := make(chan error, 1)
	go func() {
		_, _, err := svc.Configure(f2ctx, testSpec(t, 2), RequestOptions{Method: "lgate"})
		f2done <- err
	}()
	waitFor(t, "foreground waiter", func() bool { return svc.searchWaiters.Load() == 1 })

	// Release F1. The freed slot must go to the waiting F2, not the
	// polling refresh: F2's search starts, the refresh search does not.
	lgateRelease <- struct{}{}
	if err := <-f1done; err != nil {
		t.Fatal(err)
	}
	select {
	case <-lgateStarted: // F2 in flight
	case <-time.After(10 * time.Second):
		t.Fatal("foreground search F2 never started after the slot freed")
	}
	select {
	case <-lgate2Started:
		t.Fatal("refresh took the admission slot while a foreground miss was waiting")
	default:
	}

	// Release F2; with the slot idle and no waiters, the refresh finally
	// gets its turn.
	lgateRelease <- struct{}{}
	if err := <-f2done; err != nil {
		t.Fatal(err)
	}
	select {
	case <-lgate2Started:
	case <-time.After(10 * time.Second):
		t.Fatal("refresh never ran after the foreground load drained")
	}
	lgate2Release <- struct{}{}
	waitFor(t, "refresh completion", func() bool { return svc.Stats().Refreshes == 1 })
}

// readSSE reads frames off a live SSE stream, returning each non-empty
// line to the caller as it arrives.
func sseLines(t *testing.T, body io.Reader) <-chan string {
	t.Helper()
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				lines <- line
			}
		}
	}()
	return lines
}

func expectSSELine(t *testing.T, lines <-chan string, prefix string) string {
	t.Helper()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended waiting for %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no %q line within deadline", prefix)
		}
	}
}

// TestWatchSSEStream covers the wire protocol end to end: event frames
// with bus sequence ids, heartbeats, the subscriber gauge, and its
// release on client disconnect.
func TestWatchSSEStream(t *testing.T) {
	svc := stubService(t, Config{WatchHeartbeat: 5 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	spec := testSpec(t, 0)
	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/watch/"+rec.Fingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	waitFor(t, "subscriber gauge up", func() bool { return svc.Stats().WatchSubs == 1 })

	lines := sseLines(t, resp.Body)
	expectSSELine(t, lines, ": heartbeat") // idle stream stays alive

	if _, err := svc.Invalidate(rec.Fingerprint); err != nil {
		t.Fatal(err)
	}
	expectSSELine(t, lines, "id: ")
	expectSSELine(t, lines, "event: invalidated")
	data := expectSSELine(t, lines, "data: ")
	var ev Event
	if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != event.KindInvalidated || ev.Fingerprint != rec.Fingerprint {
		t.Fatalf("SSE event = %+v", ev)
	}

	// Client disconnect releases the subscription and the gauge.
	cancel()
	waitFor(t, "subscriber gauge down", func() bool { return svc.Stats().WatchSubs == 0 })
}

// TestWatchSSEResume replays missed events to a reconnecting client
// carrying Last-Event-ID.
func TestWatchSSEResume(t *testing.T) {
	svc := stubService(t, Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	spec := testSpec(t, 0)
	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invalidate(rec.Fingerprint); err != nil {
		t.Fatal(err)
	}
	// Two events exist (put, invalidated); a client that saw neither
	// resumes from id 0 and receives both from the ring.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/watch/"+rec.Fingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := sseLines(t, resp.Body)
	expectSSELine(t, lines, "event: put")
	expectSSELine(t, lines, "event: invalidated")

	// A malformed cursor is a 400, not a stream.
	badReq, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/watch/"+rec.Fingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	badReq.Header.Set("Last-Event-ID", "not-a-number")
	badResp, err := http.DefaultClient.Do(badReq)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID status = %d", badResp.StatusCode)
	}
}

// TestRecommendationsListing covers the watcher-bootstrap index.
func TestRecommendationsListing(t *testing.T) {
	svc := stubService(t, Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	fps := make(map[string]bool)
	for i := 0; i < 3; i++ {
		rec, _, err := svc.Configure(context.Background(), testSpec(t, i), RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fps[rec.Fingerprint] = true
	}

	resp, err := http.Get(srv.URL + "/v1/recommendations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("listing status = %d", resp.StatusCode)
	}
	var out struct {
		Recommendations []RecommendationInfo `json:"recommendations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recommendations) != len(fps) {
		t.Fatalf("listed %d entries, want %d", len(out.Recommendations), len(fps))
	}
	for i, info := range out.Recommendations {
		if !fps[info.Fingerprint] {
			t.Fatalf("listing[%d] unknown fingerprint %s", i, info.Fingerprint)
		}
		if info.Method != "Stub" {
			t.Fatalf("listing[%d].Method = %q", i, info.Method)
		}
		if info.MethodVersion != 1 {
			t.Fatalf("listing[%d].MethodVersion = %d", i, info.MethodVersion)
		}
		if info.SLOMS <= 0 {
			t.Fatalf("listing[%d].SLOMS = %v", i, info.SLOMS)
		}
		if info.AgeS < 0 {
			t.Fatalf("listing[%d].AgeS = %v", i, info.AgeS)
		}
		if i > 0 && out.Recommendations[i-1].Fingerprint > info.Fingerprint {
			t.Fatal("listing is not sorted by fingerprint")
		}
	}
}

// TestHealthzConcurrentWithConfigure hammers the stats path against live
// configure traffic: every counter /healthz reads must be safely
// readable off the request path (this test is the -race vehicle for the
// counter audit).
func TestHealthzConcurrentWithConfigure(t *testing.T) {
	svc := stubService(t, Config{DriftInterval: 5 * time.Millisecond, DriftThreshold: 1e-9})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(srv.URL + "/healthz")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("healthz status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				body := fmt.Sprintf(`{"workload":"chatbot","slo_ms":%d}`, 40000+worker*10+j)
				resp, err := http.Post(srv.URL+"/v1/configure", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("configure status %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkWatchFanout measures publishing one lifecycle event to N live
// watch subscribers.
//
//	go test ./internal/service -bench=BenchmarkWatchFanout -run='^$'
func BenchmarkWatchFanout(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			svc, err := New(Config{Method: "stub", WatchBuffer: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				events, cancel, err := svc.Watch(context.Background(), "bench-fp")
				if err != nil {
					b.Fatal(err)
				}
				defer cancel()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range events {
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.bus.Publish(event.KindPut, "bench-fp")
			}
			b.StopTimer()
			svc.bus.Close()
			wg.Wait()
		})
	}
}

// BenchmarkDriftSweep measures one monitor sweep over a populated store
// — the background cost the drift interval is traded against.
//
//	go test ./internal/service -bench=BenchmarkDriftSweep -benchtime=10x -run='^$'
func BenchmarkDriftSweep(b *testing.B) {
	for _, entries := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			svc, err := New(Config{Method: "stub", CacheSize: entries * 2, DriftInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			for i := 0; i < entries; i++ {
				if _, _, err := svc.Configure(context.Background(), testSpec(b, i), RequestOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.DriftSweep(context.Background())
			}
		})
	}
}

// BenchmarkServiceConfigure measures the foreground configure hot path
// (a store hit) with the lifecycle idle and with a tight drift loop
// refreshing in the background — the "refresh must sit within noise"
// acceptance measurement.
//
//	go test ./internal/service -bench=BenchmarkServiceConfigure -run='^$'
func BenchmarkServiceConfigure(b *testing.B) {
	bench := func(b *testing.B, cfg Config) {
		cfg.Method = "stub"
		svc, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		spec := testSpec(b, 0)
		if _, _, err := svc.Configure(context.Background(), spec, RequestOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Idle", func(b *testing.B) { bench(b, Config{}) })
	b.Run("RefreshingBackground", func(b *testing.B) {
		bench(b, Config{DriftInterval: time.Millisecond, DriftThreshold: 1e-9})
	})
}
