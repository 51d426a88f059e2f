package surfer

// Prebuilt workloads: the paper's six benchmark applications (Appendix D)
// plus connected components, exposed through the public API so downstream
// users can run them on their own graphs without re-implementing the
// user-defined functions.

import "repro/internal/apps"

// Workload names accepted by RunWorkload.
const (
	WorkloadVDD  = "VDD"  // vertex degree distribution
	WorkloadRS   = "RS"   // recommender system simulation
	WorkloadNR   = "NR"   // network ranking (PageRank)
	WorkloadRLG  = "RLG"  // reverse link graph
	WorkloadTC   = "TC"   // triangle counting on a 10% sample
	WorkloadTFL  = "TFL"  // two-hop friend lists on a 10% sample
	WorkloadCC   = "CC"   // weakly connected components (extension)
	WorkloadSSSP = "SSSP" // single-source shortest hop distances (extension)
)

// WorkloadNames lists the available prebuilt workloads.
func WorkloadNames() []string { return apps.Names() }

// RunWorkload executes a prebuilt workload under the propagation primitive
// and returns its result. iterations sizes the iterative workloads (RS, NR;
// non-positive selects three); CC and SSSP run to their fixpoint, bounded by
// the graph alone.
//
//	VDD -> map[int]int64 (degree histogram)
//	RS  -> []uint8 (adoption flags)
//	NR  -> []float64 (PageRank vector)
//	RLG -> [][]VertexID (reversed adjacency lists)
//	TC  -> int64 (triangle count)
//	TFL  -> [][]VertexID (two-hop lists)
//	CC   -> []uint32 (component labels)
//	SSSP -> []int32 (hop distances from vertex 0; apps.Unreachable if none)
func RunWorkload(sys *System, r *Runner, name string, iterations int, opt PropagationOptions) (any, Metrics, error) {
	app, err := apps.ByName(name, iterations)
	if err != nil {
		return nil, Metrics{}, err
	}
	return app.RunPropagation(r, sys.PG, sys.Placement, opt)
}

// RunWorkloadMapReduce executes a prebuilt workload under the MapReduce
// primitive; result types match RunWorkload.
func RunWorkloadMapReduce(sys *System, r *Runner, name string, iterations int) (any, Metrics, error) {
	app, err := apps.ByName(name, iterations)
	if err != nil {
		return nil, Metrics{}, err
	}
	return app.RunMapReduce(r, sys.PG, sys.Placement)
}

// PageRank runs the NR workload and returns the rank vector.
func PageRank(sys *System, r *Runner, iterations int, opt PropagationOptions) ([]float64, Metrics, error) {
	res, m, err := RunWorkload(sys, r, WorkloadNR, iterations, opt)
	if err != nil {
		return nil, m, err
	}
	return res.([]float64), m, nil
}

// ConnectedComponents runs the CC workload and returns per-vertex component
// labels (the minimum vertex ID of each weak component).
func ConnectedComponents(sys *System, r *Runner, opt PropagationOptions) ([]uint32, Metrics, error) {
	res, m, err := RunWorkload(sys, r, WorkloadCC, 0, opt)
	if err != nil {
		return nil, m, err
	}
	return res.([]uint32), m, nil
}

// DegreeDistribution runs the VDD workload and returns the out-degree
// histogram.
func DegreeDistribution(sys *System, r *Runner, opt PropagationOptions) (map[int]int64, Metrics, error) {
	res, m, err := RunWorkload(sys, r, WorkloadVDD, 1, opt)
	if err != nil {
		return nil, m, err
	}
	return res.(map[int]int64), m, nil
}
