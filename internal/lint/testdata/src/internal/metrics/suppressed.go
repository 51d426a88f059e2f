// Package metrics fixture: comments left over from the retired
// //lint:allow pragma suppress nothing. Each time.Now below is an SL001
// finding whatever comment sits on or above its line, reasoned or bare,
// and the two naming an unknown or malformed check at the bottom are
// ordinary comments with no finding of their own.
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
