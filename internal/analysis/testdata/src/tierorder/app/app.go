// Fixture for tierorder: store Puts under err != nil need an
// //aarc:errpath waiver with a reason.
package app

import "tierorder/store"

func cacheOnError(s store.Store, err error) {
	if err != nil {
		_ = s.Put("fp", nil) // want `store Put on an error path can cache a failed search`
	}
	if err != nil {
		_ = s.Put("fp", nil) //aarc:errpath torn-write simulation is the point of this fault path
	}
	_ = s.Put("fp", nil) // ok: not on an error path
}
