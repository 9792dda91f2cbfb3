// The serving fast path is alloc-free on a hit. GET
// /v1/recommendation/{fp} resolves to RecommendationJSON, and
// TestRecommendationJSONHitAllocFree pins the whole chain —
// RecommendationJSON → getStore → Tiered.Get → Memory.Get — at zero
// allocations per hit with testing.AllocsPerRun, over the memory store
// and over the tiered store a cache directory builds.
package service

import (
	"context"
	"encoding/json"
	"testing"

	"aarc/internal/workloads"
)

// coldConfigureAllocs is the bound TestColdConfigureAllocs holds a cold
// chatbot configure to: 217 measured, 229–230 under the race detector
// (whose sync.Pool drops pooled encoder state at random), plus a little
// slack.
const coldConfigureAllocs = 245

func TestRecommendationJSONHitAllocFree(t *testing.T) {
	for _, name := range []string{"memory", "tiered"} {
		t.Run(name, func(t *testing.T) {
			var cfg Config
			if name == "tiered" {
				// Tiered(Memory, Breaker(Retry(Disk))): a hit is served
				// by the fast tier's branch of Tiered.Get.
				cfg.CacheDir = t.TempDir()
			}
			svc := stubService(t, cfg)
			spec := testSpec(t, 0)

			body, _, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var rec Recommendation
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Fatal(err)
			}
			fp := rec.Fingerprint

			if got, err := svc.RecommendationJSON(fp); err != nil || string(got) != string(body) {
				t.Fatalf("warm-up RecommendationJSON = %q, %v", got, err)
			}
			avg := testing.AllocsPerRun(100, func() {
				if _, err := svc.RecommendationJSON(fp); err != nil {
					t.Fatalf("RecommendationJSON: %v", err)
				}
			})
			t.Logf("fingerprint GET hit: %.1f allocs", avg)
			if avg != 0 {
				t.Errorf("fingerprint GET hit path allocates %.1f times per call, want 0", avg)
			}
		})
	}
}

// TestColdConfigureAllocs bounds the allocations of one cold chatbot
// ConfigureJSON: spec validation and fingerprinting, the runner compile,
// a full AARC search on reused result buffers with a summary trace, and
// the stored body. Each run is a fresh fingerprint (a fresh seed), so
// each pays the whole search.
func TestColdConfigureAllocs(t *testing.T) {
	svc := stubService(t, Config{CacheSize: 4096})
	spec := workloads.Chatbot()
	seed := uint64(0)
	avg := testing.AllocsPerRun(50, func() {
		seed++
		_, hit, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{Method: "aarc", Seed: &seed})
		if err != nil || hit {
			t.Fatalf("cold ConfigureJSON: hit %v, %v", hit, err)
		}
	})
	t.Logf("cold ConfigureJSON: %.1f allocs", avg)
	if avg > coldConfigureAllocs {
		t.Errorf("a cold chatbot ConfigureJSON allocates %.1f times, want at most %d", avg, coldConfigureAllocs)
	}
}
