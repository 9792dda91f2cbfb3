// A store hit is alloc-free: Memory.Get and the fast-tier branch of
// Tiered.Get sit under the serving fast path (the fingerprint GET), so
// each is pinned here at zero allocations per hit with
// testing.AllocsPerRun. The service's TestRecommendationJSONHitAllocFree
// pins the chain they make together with the service above them.
package store_test

import (
	"testing"

	"aarc/internal/store"
)

// allocFreeGet pins st.Get(k) — which must hit — at zero allocations.
func allocFreeGet(t *testing.T, st store.Store, k string) {
	t.Helper()
	if _, ok, err := st.Get(k); !ok || err != nil {
		t.Fatalf("warm-up Get = ok=%v err=%v, want a hit", ok, err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, ok, err := st.Get(k); !ok || err != nil {
			t.Fatalf("Get = ok=%v err=%v, want a hit", ok, err)
		}
	})
	if avg != 0 {
		t.Errorf("Get hit path allocates %.1f times per call, want 0", avg)
	}
}

func TestMemoryGetHitAllocFree(t *testing.T) {
	m := store.NewMemory(16)
	defer m.Close()
	if err := m.Put(key(1), entry(1)); err != nil {
		t.Fatal(err)
	}
	allocFreeGet(t, m, key(1))
}

func TestTieredGetFastHitAllocFree(t *testing.T) {
	st := store.NewTiered(store.NewMemory(16), store.NewMemory(16))
	defer st.Close()
	if err := st.Put(key(1), entry(1)); err != nil {
		t.Fatal(err)
	}
	allocFreeGet(t, st, key(1))
}
