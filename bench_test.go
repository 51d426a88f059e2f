package surfer

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment on the simulated cluster and reports
// the headline quantity as a custom metric, so `go test -bench=. -benchmem`
// reproduces the whole evaluation. cmd/surfer-bench prints the full tables
// at the default scale.

import (
	"testing"

	"repro/internal/bench"
)

// benchScale keeps per-iteration cost moderate while preserving the
// paper-shaped results (32 machines, 64 partitions).
func benchScale() bench.Scale {
	return bench.Scale{Vertices: 1 << 14, Levels: 6, Machines: 32, Seed: 42}
}

func BenchmarkTable1PartitioningTopologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Topology == "T2(2,1)" {
				b.ReportMetric(r.ImprovementPct, "T2(2,1)-improv-%")
			}
		}
	}
}

func BenchmarkTable2And3OptimizationLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Tables23(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var o1, o4 float64
		for _, c := range cells {
			if c.App == "NR" && c.Level == bench.O1 {
				o1 = c.Metrics.ResponseSeconds
			}
			if c.App == "NR" && c.Level == bench.O4 {
				o4 = c.Metrics.ResponseSeconds
			}
		}
		b.ReportMetric(100*(o1-o4)/o1, "NR-O1-to-O4-improv-%")
	}
}

func BenchmarkTable4UserCodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.PropagationLoC
		}
		b.ReportMetric(float64(total)/float64(len(rows)), "avg-propagation-loc")
	}
}

func BenchmarkTable5PartitionQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].IerOursPct, "ier-%-finest")
	}
}

func BenchmarkFig6TopologyImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.ImprovementPct > best {
				best = r.ImprovementPct
			}
		}
		b.ReportMetric(best, "best-improv-%")
	}
}

func BenchmarkFig7MapReduceVsPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "NR" {
				b.ReportMetric(r.Speedup, "NR-speedup-x")
			}
		}
	}
}

func BenchmarkFig9DelaySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig9(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].ImprovementPct, "improv-%-at-128x")
	}
}

func BenchmarkFig10FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig10(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverheadPct, "recovery-overhead-%")
	}
}

func BenchmarkFig11Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig11And12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0].PropSec, rows[len(rows)-1].PropSec
		b.ReportMetric(last/first, "resp-ratio-32m-vs-8m")
	}
}

func BenchmarkFig12MapReduceVsPropagationScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig11And12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup-x-32m")
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Ablation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Topology == "T2(2,1)" && r.App == "NR" && r.Variant == "tree-aggregation" {
				b.ReportMetric(r.Metrics.ResponseSeconds, "tree-agg-NR-resp-s")
			}
		}
	}
}

func BenchmarkCascadedPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Cascade(benchScale(), 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DiskSavingPct, "disk-saving-%")
	}
}
