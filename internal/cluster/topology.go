// Package cluster models the cloud environment Surfer runs in: a set of
// machines interconnected by a switch-based tree whose bandwidth is uneven
// across machine pairs (§2 "Cloud network"). It provides the three
// experimental settings of §6.1 — the flat cluster T1, the simulated tree
// topologies T2(#pod, #level), and the heterogeneous cluster T3 — plus the
// complete weighted "machine graph" the bandwidth-aware partitioner bisects.
package cluster

import (
	"fmt"
	"math/rand"
)

// MachineID identifies a machine in a topology, densely numbered 0..N-1.
type MachineID int

// Topology describes a set of machines and the network bandwidth between
// every ordered pair. Bandwidth is symmetric in all paper settings.
type Topology struct {
	name string
	n    int
	// pod[i] is the pod index of machine i; machines in the same pod share
	// the bottom-level switch.
	pod []int
	// bw[i][j] is the bandwidth between machines i and j in bytes/second;
	// bw[i][i] is the loopback bandwidth used for intra-machine transfers
	// (effectively memory speed — transfers are free in time but counted
	// as zero network bytes by the engine).
	bw [][]float64
	// diskBW is the sequential disk bandwidth per machine, bytes/second.
	diskBW float64
}

// Common hardware constants for the simulated cluster, mirroring §F.1
// (1 Gb Ethernet NICs, SATA disks). Values are bytes per second.
const (
	// LinkBandwidth is the full NIC rate: 1 Gb/s = 125 MB/s.
	LinkBandwidth = 125e6
	// DiskBandwidth approximates a 2007-era SATA disk sequential rate.
	DiskBandwidth = 80e6
	// LoopbackBandwidth is the effective intra-machine transfer rate.
	LoopbackBandwidth = 4e9
)

// NumMachines reports the number of machines.
func (t *Topology) NumMachines() int { return t.n }

// Name returns the topology's display name (e.g. "T2(4,1)").
func (t *Topology) Name() string { return t.name }

// Pod reports the pod index of machine m.
func (t *Topology) Pod(m MachineID) int { return t.pod[m] }

// NumPods reports the number of distinct pods.
func (t *Topology) NumPods() int {
	max := -1
	for _, p := range t.pod {
		if p > max {
			max = p
		}
	}
	return max + 1
}

// Bandwidth reports the bandwidth between machines a and b in bytes/second.
func (t *Topology) Bandwidth(a, b MachineID) float64 { return t.bw[a][b] }

// DiskBandwidth reports the per-machine disk bandwidth in bytes/second.
func (t *Topology) DiskBandwidth() float64 { return t.diskBW }

// BandwidthMatrix returns a copy of the full pairwise bandwidth matrix in
// bytes/second (diagonal = loopback). Trace exporters embed it so analysis
// tools can rebuild the machine graph without the generating process.
func (t *Topology) BandwidthMatrix() [][]float64 {
	out := make([][]float64, t.n)
	for i := range out {
		out[i] = append([]float64(nil), t.bw[i]...)
	}
	return out
}

// NewTopologyFromMatrix rebuilds a topology from a raw bandwidth matrix (as
// recorded in a trace header): the inverse of BandwidthMatrix, with every
// machine in one pod and default disk bandwidth. It panics on a non-square
// matrix, since trace readers validate shape before calling.
func NewTopologyFromMatrix(name string, bw [][]float64) *Topology {
	n := len(bw)
	t := &Topology{name: name, n: n, pod: make([]int, n), diskBW: DiskBandwidth}
	t.bw = make([][]float64, n)
	for i := range bw {
		if len(bw[i]) != n {
			// Unreachable from bytes: the trace reader's checkHeader refuses a non-square matrix before TopoInfo.Topology calls this.
			panic(fmt.Sprintf("cluster: bandwidth matrix row %d has %d entries, want %d", i, len(bw[i]), n))
		}
		t.bw[i] = append([]float64(nil), bw[i]...)
	}
	return t
}

// SamePod reports whether two machines share a bottom-level switch.
func (t *Topology) SamePod(a, b MachineID) bool { return t.pod[a] == t.pod[b] }

func (t *Topology) String() string {
	return fmt.Sprintf("%s{machines=%d pods=%d}", t.name, t.n, t.NumPods())
}

// NewT1 builds the paper's baseline setting: n machines in a single pod
// sharing one switch, with even bandwidth between every pair.
func NewT1(n int) *Topology {
	t := &Topology{name: "T1", n: n, pod: make([]int, n), diskBW: DiskBandwidth}
	t.bw = uniformMatrix(n, LinkBandwidth)
	return t
}

// T2Config parameterizes the tree topology T2(#pod, #level) from §6.1.
// Machines are split evenly into Pods pods. With Levels == 1, pods connect
// through one top-level switch; with Levels == 2 pods pair up under
// second-level switches which then connect through the top switch.
//
// The paper sets the cross-switch machine-pair bandwidth as a fraction of the
// link rate: 1/TopFactor through the top-level switch (default 32) and
// 1/midFactor through a second-level switch. Figure 9 sweeps TopFactor from
// 2 to 128.
type T2Config struct {
	Machines  int
	Pods      int
	Levels    int
	TopFactor float64 // bandwidth divisor across the top-level switch
}

// midFactor is the bandwidth divisor across a second-level switch (§6.1).
const midFactor = 16

// NewT2 builds a T2 tree topology. It panics if machines do not divide
// evenly into pods or the configuration is degenerate, since experiment
// configurations are static.
func NewT2(cfg T2Config) *Topology {
	if cfg.Pods <= 0 || cfg.Machines%cfg.Pods != 0 {
		// Unreachable from flags: ByName checks pods first, and Fig9 asks ByName for its machines and pods before calling this.
		panic(fmt.Sprintf("cluster: %d machines do not divide into %d pods", cfg.Machines, cfg.Pods))
	}
	if cfg.Levels < 1 || cfg.Levels > 2 {
		// Unreachable from flags: ByName checks the switch levels first; every other caller passes a constant.
		panic("cluster: T2 supports 1 or 2 switch levels above pods")
	}
	if cfg.TopFactor == 0 {
		cfg.TopFactor = 32
	}
	n := cfg.Machines
	perPod := n / cfg.Pods
	t := &Topology{
		name:   fmt.Sprintf("T2(%d,%d)", cfg.Pods, cfg.Levels),
		n:      n,
		pod:    make([]int, n),
		diskBW: DiskBandwidth,
	}
	for i := 0; i < n; i++ {
		t.pod[i] = i / perPod
	}
	// midGroup pairs adjacent pods under a second-level switch.
	midGroup := func(pod int) int { return pod / 2 }
	t.bw = make([][]float64, n)
	for i := 0; i < n; i++ {
		t.bw[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				t.bw[i][j] = LoopbackBandwidth
			case t.pod[i] == t.pod[j]:
				t.bw[i][j] = LinkBandwidth
			case cfg.Levels == 2 && midGroup(t.pod[i]) == midGroup(t.pod[j]):
				t.bw[i][j] = LinkBandwidth / midFactor
			default:
				t.bw[i][j] = LinkBandwidth / cfg.TopFactor
			}
		}
	}
	return t
}

// NewT3 builds the heterogeneous setting T3: one pod where a random half of
// the machines has NICs running at half rate. A transfer touching a slow
// machine runs at the slower endpoint's rate (§F.1).
func NewT3(n int, seed int64) *Topology {
	t := &Topology{name: "T3", n: n, pod: make([]int, n), diskBW: DiskBandwidth}
	slow := make([]bool, n)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	for _, i := range perm[:n/2] {
		slow[i] = true
	}
	t.bw = make([][]float64, n)
	for i := 0; i < n; i++ {
		t.bw[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				t.bw[i][j] = LoopbackBandwidth
			case slow[i] || slow[j]:
				t.bw[i][j] = LinkBandwidth / 2
			default:
				t.bw[i][j] = LinkBandwidth
			}
		}
	}
	return t
}

// ByName builds the topology a tool's -topology flag names: "t1", "t2" (pods
// pods under treeLevels switch levels) or "t3" (seed picks the slow half).
// The constructors take static experiment configurations and panic on a bad
// one; this takes user input and returns an error.
func ByName(kind string, machines, pods, treeLevels int, seed int64) (*Topology, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("cluster: a topology needs at least one machine, got %d", machines)
	}
	switch kind {
	case "t1":
		return NewT1(machines), nil
	case "t2":
		if pods <= 0 || machines%pods != 0 || treeLevels < 1 || treeLevels > 2 {
			return nil, fmt.Errorf("cluster: T2 needs machines that divide into pods and 1 or 2 switch levels, got %d machines, %d pods, %d levels", machines, pods, treeLevels)
		}
		return NewT2(T2Config{Machines: machines, Pods: pods, Levels: treeLevels}), nil
	case "t3":
		return NewT3(machines, seed), nil
	}
	return nil, fmt.Errorf("cluster: unknown topology %q (want t1, t2 or t3)", kind)
}

// Expand returns a copy of the topology provisioned with extra additional
// machines, for elastic joins: the new machines form one new pod, connect to
// each other at the full link rate, and reach every existing machine at the
// existing topology's minimum inter-machine bandwidth (a conservative model
// of fresh capacity landing behind the aggregation layer). The receiver is
// unchanged. Machines that join mid-run start dormant in the engine; Expand
// only provisions the bandwidth matrix they will use once live.
func (t *Topology) Expand(extra int) *Topology {
	if extra <= 0 {
		return t
	}
	n := t.n + extra
	// Cross bandwidth: the worst pairwise rate already in the topology, or
	// the full link rate for a single-machine base.
	cross := LinkBandwidth
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			if i != j && t.bw[i][j] < cross {
				cross = t.bw[i][j]
			}
		}
	}
	out := &Topology{
		name:   fmt.Sprintf("%s+%d", t.name, extra),
		n:      n,
		pod:    make([]int, n),
		diskBW: t.diskBW,
	}
	copy(out.pod, t.pod)
	newPod := t.NumPods()
	for i := t.n; i < n; i++ {
		out.pod[i] = newPod
	}
	out.bw = make([][]float64, n)
	for i := 0; i < n; i++ {
		out.bw[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				out.bw[i][j] = LoopbackBandwidth
			case i < t.n && j < t.n:
				out.bw[i][j] = t.bw[i][j]
			case i >= t.n && j >= t.n:
				out.bw[i][j] = LinkBandwidth
			default:
				out.bw[i][j] = cross
			}
		}
	}
	return out
}

// uniformMatrix builds an n x n bandwidth matrix with value v off-diagonal
// and loopback on the diagonal.
func uniformMatrix(n int, v float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				m[i][j] = LoopbackBandwidth
			} else {
				m[i][j] = v
			}
		}
	}
	return m
}
