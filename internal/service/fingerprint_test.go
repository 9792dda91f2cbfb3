package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// chatbotDefaultFingerprint is chatbot's fingerprint under New(Config{}),
// recorded before the key stopped going through json.Marshal. It must
// never move without a method version bump: persisted caches are
// addressed by it.
const chatbotDefaultFingerprint = "sha256:b52dc5626bd05f1eaa72e61e07b194035d1221f421004724b172a18ff43854ff"

func TestChatbotFingerprintPinned(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := workloads.Chatbot()
	r, err := svc.resolve(spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := svc.fingerprint(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	if fp != chatbotDefaultFingerprint {
		t.Errorf("chatbot fingerprint = %s, want %s", fp, chatbotDefaultFingerprint)
	}
}

// marshaledKey and marshaledMeta are the cache key and the stored meta as
// json.Marshal encodes them from structs that carry the canonical spec as
// a json.RawMessage first field: the oracle for the spliced encodings.
type marshaledKey struct {
	Spec          json.RawMessage `json:"spec"`
	Search        json.RawMessage `json:"search"`
	Method        string          `json:"method"`
	MethodVersion int             `json:"method_version"`
	Seed          uint64          `json:"seed"`
	HostCores     float64         `json:"host_cores"`
	Noise         bool            `json:"noise"`
	InputScale    float64         `json:"input_scale"`
}

type marshaledMeta struct {
	Spec       json.RawMessage `json:"spec"`
	HostCores  float64         `json:"host_cores"`
	Noise      bool            `json:"noise"`
	Seed       uint64          `json:"seed"`
	InputScale float64         `json:"input_scale"`

	Method        string  `json:"method,omitempty"`
	MethodVersion int     `json:"method_version,omitempty"`
	SLOMS         float64 `json:"slo_ms,omitempty"`
	MaxSamples    int     `json:"max_samples,omitempty"`
	MaxSimCostMS  float64 `json:"max_sim_cost_ms,omitempty"`
	CreatedUnixMS int64   `json:"created_unix_ms,omitempty"`
}

// TestSplicedKeyAndMetaMatchMarshal: splicing the canonical spec in front
// of the other marshaled fields yields exactly json.Marshal's bytes, for
// the cache key (compared through its SHA-256, the fingerprint) and for
// the stored meta, over the paper workloads and generated specs, under
// default and overridden request options.
func TestSplicedKeyAndMetaMatchMarshal(t *testing.T) {
	svc, err := New(Config{HostCores: 96, Noise: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	specs := workloads.All()
	for i, topo := range workloads.Topologies() {
		spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: 8 + 14*i, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	seed := uint64(7)
	opts := []RequestOptions{
		{},
		{Method: "aarc", Seed: &seed, SLOMS: 12345.5, MaxSamples: 30, MaxSimCostMS: 9e5, InputScale: 1.4},
	}
	for _, spec := range specs {
		for k, ro := range opts {
			name := fmt.Sprintf("%s/opts%d", spec.Name, k)
			r, err := svc.resolve(spec, ro)
			if err != nil {
				t.Fatal(err)
			}
			fp, specJSON, err := svc.fingerprint(spec, r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := workflow.CanonicalJSON(spec)
			if err != nil || string(specJSON) != string(want) {
				t.Fatalf("%s: fingerprint returned other spec bytes than CanonicalJSON (%v)", name, err)
			}
			key, err := json.Marshal(marshaledKey{
				Spec:          specJSON,
				Search:        r.sopts.CanonicalJSON(),
				Method:        r.method,
				MethodVersion: r.version,
				Seed:          r.seed,
				HostCores:     r.ropts.HostCores,
				Noise:         r.ropts.Noise,
				InputScale:    r.ropts.InputScale,
			})
			if err != nil {
				t.Fatal(err)
			}
			if wantFP := fmt.Sprintf("sha256:%x", sha256.Sum256(key)); fp != wantFP {
				t.Errorf("%s: spliced fingerprint %s, json.Marshal preimage gives %s", name, fp, wantFP)
			}

			const created = 1_700_000_000_123
			meta, err := entryMetaJSON(specJSON, r, created)
			if err != nil {
				t.Fatal(err)
			}
			wantMeta, err := json.Marshal(marshaledMeta{
				Spec:       specJSON,
				HostCores:  r.ropts.HostCores,
				Noise:      r.ropts.Noise,
				Seed:       r.ropts.Seed,
				InputScale: r.ropts.InputScale,

				Method:        r.method,
				MethodVersion: r.version,
				SLOMS:         r.sopts.SLOMS,
				MaxSamples:    r.sopts.MaxSamples,
				MaxSimCostMS:  r.sopts.MaxSimCostMS,
				CreatedUnixMS: created,
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(meta) != string(wantMeta) {
				t.Errorf("%s: spliced meta differs from json.Marshal's:\n got %.200s\nwant %.200s", name, meta, wantMeta)
			}
			m, rebuilt, err := storedSpec(fp, meta)
			if err != nil {
				t.Fatal(err)
			}
			if m.Seed != r.ropts.Seed || m.MaxSamples != r.sopts.MaxSamples || m.CreatedUnixMS != created {
				t.Errorf("%s: meta round trip = %+v", name, m.metaFields)
			}
			if again, _ := workflow.CanonicalJSON(rebuilt); string(again) != string(specJSON) {
				t.Errorf("%s: the stored spec does not rebuild to the same canonical bytes", name)
			}
		}
	}
}
