// Package metrics fixture: the pragma path. The first finding is
// suppressed by a reasoned //lint:allow on the line above, the second by a
// trailing pragma; the third pragma has no reason, so it is itself an
// SL000 error and must NOT suppress. The two pragmas at the bottom are the
// rest of the SL000 corpus: an unknown check ID and a malformed ID.
package metrics

import "time"

func startupStamp() (time.Time, time.Time, time.Time) {
	//lint:allow SL001 one-shot process start stamp, never enters virtual time
	a := time.Now()
	b := time.Now() //lint:allow SL001 trailing-pragma form of the same stamp
	//lint:allow SL001
	c := time.Now()
	return a, b, c
}

//lint:allow SL999 this check was retired long ago
//lint:allow entropy misspelled check reference
func late() {}
