package search

import "encoding/json"

// CanonicalJSON returns the deterministic JSON encoding of the options'
// result-affecting fields: the SLO and the two budgets. Progress is
// observational — it cannot change which samples a search takes or which
// assignment it returns — so it is excluded, letting a caching layer treat
// otherwise-identical searches with and without a progress callback as the
// same search. The serving layer hashes these bytes (together with the
// spec's canonical JSON and the runner/method identity) into its cache key.
//
// SLOMS and MaxSimCostMS must be finite: JSON has no NaN or infinity, so
// CanonicalJSON panics on one. The service refuses them before keying
// (a request's as a 400, a Config's in service.New).
func (o Options) CanonicalJSON() []byte {
	b, err := json.Marshal(struct {
		SLOMS        float64 `json:"slo_ms"`
		MaxSamples   int     `json:"max_samples"`
		MaxSimCostMS float64 `json:"max_sim_cost_ms"`
	}{o.SLOMS, o.MaxSamples, o.MaxSimCostMS})
	if err != nil {
		// Finite scalars cannot fail to marshal.
		panic(err)
	}
	return b
}
