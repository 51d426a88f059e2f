package main

import (
	"fmt"
	"path/filepath"
)

// checkStability runs every workload twice on the same code — two sets, each
// covering the same consecutive seeds — and applies the acceptance rule of
// the contract's driver to itself: per end-to-end metric, the second set's
// median may not be worse than the first's by more than the metric's bound,
// and (with four seeds or more) the spread of each set, the distance between
// its quartiles over its median, must stay within the bound too, except for
// setup_s. Beyond the driver's rule, the deterministic statistics and the
// output digest of a seed must be identical in both sets.
func checkStability(a runArgs, seeds int) error {
	if seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1")
	}
	a.trace = false
	type set map[string][]*result // workload -> one result per seed
	sets := [2]set{{}, {}}
	for i := range sets {
		dir := filepath.Join(a.out, fmt.Sprintf("set%d", i+1))
		for s := 0; s < seeds; s++ {
			for _, w := range workloads {
				child := a
				child.seed, child.out = a.seed+int64(s), dir
				res, err := runChild(w.name, child)
				if err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", i+1, w.name, child.seed, err)
				}
				sets[i][w.name] = append(sets[i][w.name], res)
			}
		}
	}

	bad := 0
	fmt.Printf("\nstability: 2 sets x %d seed(s) from %d\n", seeds, a.seed)
	fmt.Printf("%-12s %-20s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			var xs [2][]float64
			for i := range sets {
				for _, r := range sets[i][w.name] {
					xs[i] = append(xs[i], r.EndToEnd[d.Name].Value)
				}
			}
			m1, m2 := median(xs[0]), median(xs[1])
			worse := worseBy(m1, m2, d.Better)
			verdict := ""
			if worse > d.Bound {
				verdict = "  FAIL median"
			}
			sp1, sp2 := "-", "-"
			if seeds >= 4 {
				s1, s2 := spread(xs[0]), spread(xs[1])
				sp1, sp2 = fmt.Sprintf("%.4f", s1), fmt.Sprintf("%.4f", s2)
				if d.Name != "setup_s" && (s1 > d.Bound || s2 > d.Bound) {
					verdict += "  FAIL spread"
				}
			}
			if verdict != "" {
				bad++
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %+8.4f %8s %8s %6.2f%s\n", w.name, d.Name, m1, m2, worse, sp1, sp2, d.Bound, verdict)
		}
		for s := 0; s < seeds; s++ {
			r1, r2 := sets[0][w.name][s], sets[1][w.name][s]
			if r1.Digest != r2.Digest {
				bad++
				fmt.Printf("%-12s seed %d: output digests differ  FAIL\n", w.name, r1.Seed)
			}
			for k, v := range r1.Exact {
				if r2.Exact[k] != v {
					bad++
					fmt.Printf("%-12s seed %d: %s is %v, then %v  FAIL\n", w.name, r1.Seed, k, v, r2.Exact[k])
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("stability: %d disagreement(s) beyond the bounds", bad)
	}
	fmt.Println("stability: the two sets agree on every end-to-end metric within its bound; counts, virtual statistics and digests agree exactly")
	return nil
}
