package service

import (
	"encoding/json"
	"sort"
	"time"

	"aarc/internal/store"
)

// This file is the listing of what the store holds. Only a request
// writes the store, and putStore and Invalidate log each successful
// write: the change record (DESIGN.md §11).

// RecommendationInfo is one stored entry's listing line (GET
// /v1/recommendations): what is stored, under which method and version,
// against which SLO, and how old it is. The listing reads every entry's
// body and meta to build its lines; a client gets the lines, not the
// bodies.
type RecommendationInfo struct {
	Fingerprint   string  `json:"fingerprint"`
	Workflow      string  `json:"workflow,omitempty"`
	Method        string  `json:"method,omitempty"`
	MethodVersion int     `json:"method_version,omitempty"`
	SLOMS         float64 `json:"slo_ms,omitempty"`
	SLOCompliant  bool    `json:"slo_compliant"`
	Samples       int     `json:"samples,omitempty"`
	AgeS          float64 `json:"age_s,omitempty"`
}

// Recommendations lists every stored entry, sorted by fingerprint. It
// reads through store.Peek, so listing a tiered store promotes nothing
// into its memory tier and evicts none of its working set. An entry
// deleted between the key scan and its read is skipped, as is one whose
// read fails (counted in StoreErrors); an entry whose body or meta does
// not decode is listed by fingerprint alone (age and method are
// best-effort — old processes' entries lack the lifecycle meta fields).
func (s *Service) Recommendations() []RecommendationInfo {
	keys := s.st.Keys()
	sort.Strings(keys)
	now := time.Now().UnixMilli()
	out := make([]RecommendationInfo, 0, len(keys))
	for _, fp := range keys {
		se, ok, err := store.Peek(s.st, fp)
		if err != nil {
			s.storeErrs.Add(1)
		}
		if !ok {
			continue
		}
		info := RecommendationInfo{Fingerprint: fp}
		var rec Recommendation
		if json.Unmarshal(se.Body, &rec) == nil {
			info.Workflow = rec.Workflow
			info.Method = rec.Method
			info.SLOMS = rec.SLOMS
			info.SLOCompliant = rec.SLOCompliant
			info.Samples = rec.Samples
		}
		var m entryMeta
		if json.Unmarshal(se.Meta, &m) == nil {
			info.MethodVersion = m.MethodVersion
			if m.CreatedUnixMS > 0 {
				info.AgeS = float64(now-m.CreatedUnixMS) / 1000
			}
		}
		out = append(out, info)
	}
	return out
}
