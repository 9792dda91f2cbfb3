// Fixture for detcanon: functions named CanonicalJSON/Fingerprint (and
// //aarc:canonical-marked ones) root the determinism call graph; the
// nondeterminism sources inside the reachable set must be flagged, and
// the sanctioned escapes (sort-after, map-to-map copy, //aarc:sorted)
// must not.
package fp

import (
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// Fingerprint stamps wall-clock into the hash input — the seeded
// violation from the acceptance checklist.
func Fingerprint(body []byte) string {
	stamp := time.Now().Unix() // want `time\.Now in canonicalization path Fingerprint`
	return strconv.FormatInt(stamp, 10) + string(body) + salt() + sum(rekey(map[string]int{"a": 1}))
}

// salt is reachable from Fingerprint, so its global rand use is inside
// the canonical graph.
func salt() string {
	return strconv.Itoa(rand.Int()) // want `global math/rand source in canonicalization path salt`
}

func CanonicalJSON(m map[string]int) string {
	var out string
	for k := range m { // want `map iteration order can reach canonical output from CanonicalJSON`
		out += k
	}
	return out
}

// rekey only re-keys entries into another map: source order cannot be
// observed, so no diagnostic.
func rekey(src map[string]int) map[string]int {
	dst := make(map[string]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// sum aggregates commutatively; the marker records why order is safe.
func sum(m map[string]int) string {
	n := 0
	for _, v := range m { //aarc:sorted commutative aggregation; order-free
		n += v
	}
	return strconv.Itoa(n)
}

// sortedCanonical collects then orders — the sanctioned idiom.
//
//aarc:canonical marker-rooted entry point
func sortedCanonical(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out string
	for _, k := range keys {
		out += k + strconv.Itoa(m[k])
	}
	return out
}

type registry struct{ keys []string }

// Keys returns an unordered listing, like the Store contract.
func (r *registry) Keys() []string { return r.keys }

// listFingerprint folds an unordered listing straight into output.
//
//aarc:canonical fingerprints the registry listing
func listFingerprint(r *registry) string {
	var out string
	for _, k := range r.Keys() { // want `Keys\(\) order is unspecified and reaches canonical output from listFingerprint`
		out += k
	}
	return out
}

// sortedListFingerprint sorts the listing before folding it in.
//
//aarc:canonical sorted listing
func sortedListFingerprint(r *registry) string {
	keys := r.Keys()
	sort.Strings(keys)
	var out string
	for _, k := range keys {
		out += k
	}
	return out
}

// unreachableClock is outside the canonical call graph: time.Now here
// is fine (metrics, TTLs).
func unreachableClock() int64 {
	return time.Now().Unix()
}

// applied runs stamp only through a function value: stamp never
// appears as a callee, but it is still on the canonical path.
//
//aarc:canonical stamps through a helper
func applied(body string) string {
	return apply(stamp, body)
}

func apply(f func(string) string, s string) string { return f(s) }

func stamp(s string) string {
	return s + strconv.FormatInt(time.Now().Unix(), 10) // want `time\.Now in canonicalization path stamp`
}

// searchedNotSorted only searches and checks sortedness after the map
// range; none of those calls orders anything, so the iteration order
// still escapes.
//
//aarc:canonical searching is not sorting
func searchedNotSorted(m map[string]int, known []string) string {
	var out []string
	for k := range m { // want `map iteration order can reach canonical output from searchedNotSorted`
		out = append(out, k)
	}
	if sort.StringsAreSorted(out) || sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		return "sorted"
	}
	return out[sort.SearchStrings(known, out[0])%len(out)]
}
