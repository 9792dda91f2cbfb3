package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aarc/internal/store"
	"aarc/internal/testutil"
)

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

// TestChangeRecordOnlyForSuccessfulWrites: the service logs one record
// where it writes the store, naming the fingerprint, and only when the
// write succeeded. A failed Put or Delete, a store hit, a batch duplicate
// and a Delete of an absent fingerprint record nothing.
func TestChangeRecordOnlyForSuccessfulWrites(t *testing.T) {
	faulty := store.NewFaulty(store.NewMemory(16), store.FaultConfig{})
	svc := stubService(t, Config{Store: faulty})
	// Swap the service's logger, not slog.Default: SetDefault also
	// redirects the log package, and restoring the old default does not
	// undo that.
	var buf bytes.Buffer
	svc.logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
	// Each write is logged before the call that made it returns, so after
	// each call the buffer holds exactly the records that call made.
	recorded := func() string {
		defer buf.Reset()
		return buf.String()
	}
	record := func(msg, fp string) string {
		return fmt.Sprintf("level=INFO msg=%q fingerprint=%s\n", msg, fp)
	}
	spec, ctx := testSpec(t, 0), context.Background()

	faulty.FailAll(nil)
	rec, _, err := svc.Configure(ctx, spec, RequestOptions{})
	if err != nil {
		t.Fatalf("Configure during a store outage: %v", err)
	}
	if svc.Stats().StoreErrors == 0 {
		t.Fatal("a failed Put left store_errors at 0")
	}
	if got := recorded(); got != "" {
		t.Fatalf("a failed Put recorded %q", got)
	}

	faulty.Recover()
	if _, hit, err := svc.Configure(ctx, spec, RequestOptions{}); err != nil || hit {
		t.Fatalf("post-recovery Configure: hit=%v err=%v", hit, err)
	}
	if _, hit, err := svc.Configure(ctx, spec, RequestOptions{}); err != nil || !hit {
		t.Fatalf("repeat Configure: hit=%v err=%v", hit, err)
	}
	if got, want := recorded(), record("store put", rec.Fingerprint); got != want {
		t.Fatalf("a stored miss and a hit recorded %q, want %q", got, want)
	}

	faulty.FailAll(nil)
	if _, err := svc.Invalidate(rec.Fingerprint); err == nil {
		t.Fatal("Invalidate over a failing Delete returned no error")
	}
	if got := recorded(); got != "" {
		t.Fatalf("a failed Delete recorded %q", got)
	}
	faulty.Recover()
	if existed, err := svc.Invalidate(rec.Fingerprint); err != nil || !existed {
		t.Fatalf("Invalidate: existed=%v err=%v", existed, err)
	}
	if got, want := recorded(), record("store invalidated", rec.Fingerprint); got != want {
		t.Fatalf("Invalidate recorded %q, want %q", got, want)
	}
	if existed, err := svc.Invalidate(rec.Fingerprint); err != nil || existed {
		t.Fatalf("second Invalidate: existed=%v err=%v", existed, err)
	}
	if got := recorded(); got != "" {
		t.Fatalf("invalidating an absent fingerprint recorded %q", got)
	}

	// A batch miss is stored once, however often the batch names it.
	results, err := svc.ConfigureBatch(ctx, []BatchItem{{Spec: testSpec(t, 1)}, {Spec: testSpec(t, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
	}
	if got, want := recorded(), record("store put", results[0].Fingerprint); got != want {
		t.Fatalf("a batch miss recorded %q, want %q", got, want)
	}
}

// TestRecommendationsListing covers the listing of stored entries, over
// the memory store and over a CacheDir store that holds more entries
// than its memory tier. Listing reads without promoting: it leaves the
// memory tier's entries and evictions as they were.
func TestRecommendationsListing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		entries int
	}{
		{"memory", Config{}, 3},
		{"cache-dir", Config{CacheDir: t.TempDir(), CacheSize: 4}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := stubService(t, tc.cfg)
			srv := httptest.NewServer(NewHandler(svc))
			defer srv.Close()

			fps := make(map[string]bool)
			for i := 0; i < tc.entries; i++ {
				rec, _, err := svc.Configure(context.Background(), testSpec(t, i), RequestOptions{})
				if err != nil {
					t.Fatal(err)
				}
				fps[rec.Fingerprint] = true
			}
			before := svc.Stats()

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
			after := svc.Stats()
			if after.Evictions != before.Evictions || after.Tiers["memory"] != before.Tiers["memory"] {
				t.Errorf("listing moved evictions %d -> %d and memory entries %d -> %d; want both unchanged",
					before.Evictions, after.Evictions, before.Tiers["memory"], after.Tiers["memory"])
			}
		})
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
