// Fault tolerance: run PageRank while a slave machine dies mid-run. The
// engine detects the failure via heartbeat, re-executes the lost tasks on
// replica machines (re-transferring Combine inputs), and the results stay
// bit-identical to a failure-free run — the Figure 10 experiment, driven
// through the public API.
package main

import (
	"fmt"
	"log"
	"math"

	surfer "repro"
)

const damping = 0.85

type pagerank struct {
	g *surfer.Graph
	n float64
}

func (p *pagerank) Init(surfer.VertexID) float64 { return 1 / p.n }
func (p *pagerank) Transfer(src surfer.VertexID, rank float64, dst surfer.VertexID, emit surfer.Emit[float64]) {
	emit(dst, rank*damping/float64(p.g.OutDegree(src)))
}
func (p *pagerank) Combine(_ surfer.VertexID, _ float64, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + (1-damping)/p.n
}
func (p *pagerank) Bytes(float64) int64 { return 8 }
func (p *pagerank) Associative() bool   { return true }
func (p *pagerank) Merge(_ surfer.VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum
}

func main() {
	g := surfer.Social(surfer.DefaultSocial(20_000, 3))
	topo := surfer.NewT1(8)
	opt := surfer.PropagationOptions{LocalPropagation: true, LocalCombination: true}
	prog := &pagerank{g: g, n: float64(g.NumVertices())}

	// Failure-free baseline.
	clean, err := surfer.Build(surfer.Config{Graph: g, Topology: topo, Levels: 4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	baseSt, baseM, err := surfer.RunPropagation(clean, clean.NewRunner(), prog, 3, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %.4f s, %d task executions\n", baseM.ResponseSeconds, baseM.TasksRun)

	// Same system with machine 2 scheduled to die mid-run.
	killAt := baseM.ResponseSeconds * 0.3
	faulty, err := surfer.Build(surfer.Config{
		Graph: g, Topology: topo, Levels: 4, Seed: 3,
		Faults:            &surfer.FaultSchedule{Kills: []surfer.Kill{{Machine: 2, At: killAt}}},
		HeartbeatInterval: baseM.ResponseSeconds / 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	r := faulty.NewRunner()
	st, m, err := surfer.RunPropagation(faulty, r, prog, 3, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with failure: %.4f s (%.1f%% overhead), %d recoveries\n",
		m.ResponseSeconds, 100*(m.ResponseSeconds-baseM.ResponseSeconds)/baseM.ResponseSeconds,
		m.Recoveries)

	// Correctness is unaffected by the failure.
	var maxDiff float64
	for v := range st.Values {
		if d := math.Abs(st.Values[v] - baseSt.Values[v]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max rank difference vs baseline: %.2e (must be 0)\n", maxDiff)

	// The job manager's view: per-machine utilization; the dead machine
	// stops accumulating.
	fmt.Println("machine utilization after the run:")
	for machine, u := range r.MachineUtilization() {
		marker := ""
		if machine == 2 {
			marker = "   <- killed"
		}
		fmt.Printf("  machine %d: %5.1f%%%s\n", machine, 100*u, marker)
	}
}
