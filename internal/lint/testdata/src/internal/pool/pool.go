// Package pool fixture: this path (internal/pool/pool.go) is the
// sanctioned worker pool, so its go statement must produce no SL003.
package pool

import "sync"

func forEach(n int, fn func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
