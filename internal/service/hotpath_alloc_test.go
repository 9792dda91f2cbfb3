// Runtime twin of the hotalloc static check for the serving fast path:
// GET /v1/recommendation/{fp} resolves to RecommendationJSON, whose
// //aarc:hotpath marker promises an alloc-free hit. hotalloc proves it
// statically down to the Store interface hop; this pins the whole
// chain — RecommendationJSON → getStore → Tiered.Get → Memory.Get —
// at zero allocations per hit at runtime.
package service

import (
	"context"
	"encoding/json"
	"testing"
)

func TestRecommendationJSONHitAllocFree(t *testing.T) {
	svc := stubService(t, Config{})
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
	if avg != 0 {
		t.Errorf("fingerprint GET hit path allocates %.1f times per call, want 0", avg)
	}
}
