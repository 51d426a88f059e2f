// Package graph fixture: SL001 in the supporting tier. loadStamp calls the
// wall clock directly, which the contract forbids outside the event loop
// too; the //lint:allow comment left on its line suppresses nothing, so
// the finding fails the build like any other.
package graph

import "time"

// loadStamp is the SL001-in-a-supporting-package case.
func loadStamp() int64 {
	return time.Now().UnixNano() //lint:allow SL001 fixture sink: load-time stamp stays out of simulation state
}

// Stamp is the exported helper other packages would call.
func Stamp() int64 {
	return loadStamp()
}
