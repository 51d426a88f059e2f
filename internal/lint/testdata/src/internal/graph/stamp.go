// Package graph fixture: SL001 in the supporting tier. loadStamp calls the
// wall clock directly, which the contract forbids outside the event loop
// too; the reasoned pragma suppresses it and the finding stays in the
// inventory, reason attached.
package graph

import "time"

// loadStamp is the suppressed-SL001-in-a-supporting-package case.
func loadStamp() int64 {
	return time.Now().UnixNano() //lint:allow SL001 fixture sink: load-time stamp stays out of simulation state
}

// Stamp is the exported helper other packages would call.
func Stamp() int64 {
	return loadStamp()
}
