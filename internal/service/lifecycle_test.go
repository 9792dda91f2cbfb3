package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aarc/internal/event"
	"aarc/internal/store"
	"aarc/internal/testutil"
)

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

// TestIdleServiceRunsNothing: with every option that could start work of
// its own turned on, a Service that has served configures, validations,
// a batch and an invalidation runs no goroutine between requests. Only a
// request can write its store, so the invalidated entry stays gone.
func TestIdleServiceRunsNothing(t *testing.T) {
	check := testutil.CheckNoLeaks(t)
	svc := stubService(t, Config{
		CacheDir:              t.TempDir(),
		CacheSize:             2,
		MaxConcurrentSearches: 2,
		SearchTimeout:         time.Second,
		ChaosDiskDown:         time.Millisecond,
		BreakerThreshold:      1,
		BreakerCooldown:       time.Millisecond,
	})
	ctx := context.Background()
	fps := make([]string, 4)
	for i := range fps {
		rec, _, err := svc.Configure(ctx, testSpec(t, i), RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = rec.Fingerprint
		if _, err := svc.Validate(fps[i], 2); err != nil {
			t.Fatalf("Validate %d: %v", i, err)
		}
	}
	items := []BatchItem{{Spec: testSpec(t, 4)}, {Spec: testSpec(t, 4)}, {Spec: testSpec(t, 0)}}
	results, err := svc.ConfigureBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
	}
	if existed, err := svc.Invalidate(fps[3]); err != nil || !existed {
		t.Fatalf("Invalidate: existed=%v err=%v", existed, err)
	}

	check() // before Close: nothing the service started may still run

	if _, err := svc.RecommendationJSON(fps[3]); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("invalidated entry answers %v, want ErrUnknownFingerprint", err)
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
	svc := stubService(t, Config{})
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

// BenchmarkServiceConfigure measures the foreground configure hot path:
// a store hit on an idle service.
//
//	go test ./internal/service -bench=BenchmarkServiceConfigure -run='^$'
func BenchmarkServiceConfigure(b *testing.B) {
	b.Run("Idle", func(b *testing.B) {
		svc, err := New(Config{Method: "stub"})
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
	})
}
