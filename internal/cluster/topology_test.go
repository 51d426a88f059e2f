package cluster

import (
	"math"
	"testing"
)

func TestT1Uniform(t *testing.T) {
	topo := NewT1(8)
	if topo.NumMachines() != 8 || topo.NumPods() != 1 {
		t.Fatalf("T1: machines=%d pods=%d", topo.NumMachines(), topo.NumPods())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := LinkBandwidth
			if i == j {
				want = LoopbackBandwidth
			}
			if topo.Bandwidth(MachineID(i), MachineID(j)) != want {
				t.Fatalf("bw(%d,%d) = %g", i, j, topo.Bandwidth(MachineID(i), MachineID(j)))
			}
		}
	}
}

func TestT2TwoPods(t *testing.T) {
	topo := NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1})
	if topo.Name() != "T2(2,1)" {
		t.Fatalf("name = %q", topo.Name())
	}
	if topo.NumPods() != 2 {
		t.Fatalf("pods = %d", topo.NumPods())
	}
	// Intra-pod full rate; cross-pod 1/32 by default.
	if got := topo.Bandwidth(0, 1); got != LinkBandwidth {
		t.Fatalf("intra-pod bw = %g", got)
	}
	if got := topo.Bandwidth(0, 7); got != LinkBandwidth/32 {
		t.Fatalf("cross-pod bw = %g, want %g", got, LinkBandwidth/32)
	}
	if !topo.SamePod(0, 3) || topo.SamePod(3, 4) {
		t.Fatal("pod membership wrong")
	}
}

func TestT2TwoLevels(t *testing.T) {
	topo := NewT2(T2Config{Machines: 16, Pods: 4, Levels: 2})
	// Pods 0,1 share a mid switch; pods 2,3 share another.
	// machine 0 in pod 0; machine 4 in pod 1; machine 8 in pod 2.
	if got := topo.Bandwidth(0, 4); got != LinkBandwidth/16 {
		t.Fatalf("mid-level bw = %g, want %g", got, LinkBandwidth/16)
	}
	if got := topo.Bandwidth(0, 8); got != LinkBandwidth/32 {
		t.Fatalf("top-level bw = %g, want %g", got, LinkBandwidth/32)
	}
	if got := topo.Bandwidth(0, 1); got != LinkBandwidth {
		t.Fatalf("intra-pod bw = %g", got)
	}
}

func TestT2CustomFactors(t *testing.T) {
	topo := NewT2(T2Config{Machines: 4, Pods: 2, Levels: 1, TopFactor: 128})
	if got := topo.Bandwidth(0, 2); got != LinkBandwidth/128 {
		t.Fatalf("bw = %g, want %g", got, LinkBandwidth/128)
	}
}

func TestT2PanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []T2Config{
		{Machines: 7, Pods: 2, Levels: 1},
		{Machines: 8, Pods: 0, Levels: 1},
		{Machines: 8, Pods: 2, Levels: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			NewT2(cfg)
		}()
	}
}

func TestT3HalfSlow(t *testing.T) {
	topo := NewT3(8, 1)
	slowPairs, fastPairs := 0, 0
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			bw := topo.Bandwidth(MachineID(i), MachineID(j))
			switch bw {
			case LinkBandwidth:
				fastPairs++
			case LinkBandwidth / 2:
				slowPairs++
			default:
				t.Fatalf("unexpected bw %g", bw)
			}
		}
	}
	// 4 fast machines -> C(4,2)=6 fast pairs; rest slow.
	if fastPairs != 6 || slowPairs != 22 {
		t.Fatalf("fast=%d slow=%d, want 6/22", fastPairs, slowPairs)
	}
}

func TestT3Deterministic(t *testing.T) {
	a, b := NewT3(8, 5), NewT3(8, 5)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if a.Bandwidth(MachineID(i), MachineID(j)) != b.Bandwidth(MachineID(i), MachineID(j)) {
				t.Fatal("same seed, different topology")
			}
		}
	}
}

func TestBandwidthSymmetric(t *testing.T) {
	for _, topo := range []*Topology{
		NewT1(8),
		NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1}),
		NewT2(T2Config{Machines: 16, Pods: 4, Levels: 2}),
		NewT3(8, 2),
	} {
		for i := 0; i < topo.NumMachines(); i++ {
			for j := 0; j < topo.NumMachines(); j++ {
				a := topo.Bandwidth(MachineID(i), MachineID(j))
				b := topo.Bandwidth(MachineID(j), MachineID(i))
				if a != b {
					t.Fatalf("%s: asymmetric bw(%d,%d)", topo.Name(), i, j)
				}
			}
		}
	}
}

func TestAggregateBandwidth(t *testing.T) {
	topo := NewT2(T2Config{Machines: 4, Pods: 2, Levels: 1})
	// Cross-pod sets: 2x2 pairs at LinkBandwidth/32.
	got := topo.AggregateBandwidth([]MachineID{0, 1}, []MachineID{2, 3})
	want := 4 * LinkBandwidth / 32
	if math.Abs(got-want) > 1 {
		t.Fatalf("aggregate = %g, want %g", got, want)
	}
}

func TestMachineGraphBisectRespectsPods(t *testing.T) {
	topo := NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1})
	mg := NewMachineGraph(topo)
	a, b := mg.Bisect()
	if a.Size() != 4 || b.Size() != 4 {
		t.Fatalf("unbalanced bisection %d/%d", a.Size(), b.Size())
	}
	// Each half must be exactly one pod: cut bandwidth is then minimal.
	podOf := func(ms []MachineID) int {
		p := topo.Pod(ms[0])
		for _, m := range ms {
			if topo.Pod(m) != p {
				return -1
			}
		}
		return p
	}
	if podOf(a.Machines()) == -1 || podOf(b.Machines()) == -1 {
		t.Fatalf("bisection split pods: A=%v B=%v", a.Machines(), b.Machines())
	}
}

func TestMachineGraphBisectFourPods(t *testing.T) {
	topo := NewT2(T2Config{Machines: 16, Pods: 4, Levels: 2})
	mg := NewMachineGraph(topo)
	a, b := mg.Bisect()
	if a.Size() != 8 || b.Size() != 8 {
		t.Fatalf("unbalanced %d/%d", a.Size(), b.Size())
	}
	// The two mid-level groups (pods {0,1} and {2,3}) should separate:
	// that cut crosses only top-level links.
	group := func(m MachineID) int { return topo.Pod(m) / 2 }
	for _, m := range a.Machines() {
		if group(m) != group(a.Machines()[0]) {
			t.Fatalf("half A mixes mid-level groups: %v", a.Machines())
		}
	}
	for _, m := range b.Machines() {
		if group(m) != group(b.Machines()[0]) {
			t.Fatalf("half B mixes mid-level groups: %v", b.Machines())
		}
	}
}

func TestMachineGraphBisectT1AnyBalanced(t *testing.T) {
	topo := NewT1(6)
	mg := NewMachineGraph(topo)
	a, b := mg.Bisect()
	if a.Size() != 3 || b.Size() != 3 {
		t.Fatalf("unbalanced %d/%d", a.Size(), b.Size())
	}
}

func TestMachineGraphBisectOddSize(t *testing.T) {
	topo := NewT1(5)
	a, b := NewMachineGraph(topo).Bisect()
	if a.Size()+b.Size() != 5 {
		t.Fatalf("lost machines: %d + %d", a.Size(), b.Size())
	}
	if a.Size() < 2 || b.Size() < 2 {
		t.Fatalf("too unbalanced: %d/%d", a.Size(), b.Size())
	}
}

func TestMachineGraphBisectPanicsOnSingleton(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMachineGraph(NewT1(1)).Bisect()
}

func TestBestConnected(t *testing.T) {
	topo := NewT3(4, 3)
	mg := NewMachineGraph(topo)
	best := mg.BestConnected()
	// Best-connected machine must be a fast one: verify its aggregate is max.
	sum := func(m MachineID) float64 {
		var s float64
		for i := 0; i < 4; i++ {
			if MachineID(i) != m {
				s += topo.Bandwidth(m, MachineID(i))
			}
		}
		return s
	}
	for i := 0; i < 4; i++ {
		if sum(MachineID(i)) > sum(best)+1e-9 {
			t.Fatalf("machine %d better connected than BestConnected()=%d", i, best)
		}
	}
}

func TestT2FactorMonotonic(t *testing.T) {
	// Larger delay factors mean strictly lower cross-pod bandwidth.
	var prev float64 = 1e18
	for _, f := range []float64{2, 4, 8, 16, 32, 64, 128} {
		topo := NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1, TopFactor: f})
		bw := topo.Bandwidth(0, 7)
		if bw >= prev {
			t.Fatalf("factor %g: bw %g not below previous %g", f, bw, prev)
		}
		if topo.Bandwidth(0, 1) != LinkBandwidth {
			t.Fatalf("factor %g changed intra-pod bandwidth", f)
		}
		prev = bw
	}
}

func TestNumPodsAcrossTopologies(t *testing.T) {
	cases := []struct {
		topo *Topology
		want int
	}{
		{NewT1(8), 1},
		{NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1}), 2},
		{NewT2(T2Config{Machines: 16, Pods: 4, Levels: 2}), 4},
		{NewT3(8, 1), 1},
	}
	for _, c := range cases {
		if got := c.topo.NumPods(); got != c.want {
			t.Errorf("%s: pods = %d, want %d", c.topo.Name(), got, c.want)
		}
	}
}

func TestMachineGraphSize(t *testing.T) {
	mg := NewMachineGraph(NewT1(5))
	if mg.Size() != 5 || len(mg.Machines()) != 5 {
		t.Fatalf("size = %d", mg.Size())
	}
	if mg.Weight(0, 1) != LinkBandwidth {
		t.Fatal("weight wrong")
	}
}

func TestExpandAddsDormantCapacity(t *testing.T) {
	base := NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1, TopFactor: 4})
	got := base.Expand(3)
	if got.NumMachines() != 11 {
		t.Fatalf("machines = %d, want 11", got.NumMachines())
	}
	// The base topology is untouched — Expand returns a new value.
	if base.NumMachines() != 8 {
		t.Fatalf("Expand mutated its receiver to %d machines", base.NumMachines())
	}
	// Existing links keep their bandwidth exactly.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if got.Bandwidth(MachineID(i), MachineID(j)) != base.Bandwidth(MachineID(i), MachineID(j)) {
				t.Fatalf("link %d→%d changed", i, j)
			}
		}
	}
	// New machines share one new pod at full intra-pod rate...
	if !got.SamePod(8, 10) || got.SamePod(0, 8) {
		t.Fatal("expanded machines should share a new pod of their own")
	}
	if got.Bandwidth(8, 9) != LinkBandwidth {
		t.Fatalf("intra-new bandwidth = %g, want %g", got.Bandwidth(8, 9), float64(LinkBandwidth))
	}
	// ...and reach the base at the worst rate already present (the
	// oversubscribed top-level cut), never better.
	cross := got.Bandwidth(0, 8)
	if cross != base.Bandwidth(0, 7) {
		t.Fatalf("cross bandwidth = %g, want the base's worst %g", cross, base.Bandwidth(0, 7))
	}
	if got.NumPods() != base.NumPods()+1 {
		t.Fatalf("pods = %d, want %d", got.NumPods(), base.NumPods()+1)
	}
	// No-op expansion returns the receiver unchanged.
	if base.Expand(0) != base {
		t.Fatal("Expand(0) should return the same topology")
	}
}

// TestByName: the three names build the three settings, and every input a
// flag can carry that the constructors would panic on is an error instead.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		kind                string
		machines, pods, lvl int
		want                string // String() of the topology, or "" for an error
	}{
		{"t1", 8, 2, 1, "T1{machines=8 pods=1}"},
		{"t2", 8, 2, 1, "T2(2,1){machines=8 pods=2}"},
		{"t2", 8, 4, 2, "T2(4,2){machines=8 pods=4}"},
		{"t3", 8, 2, 1, "T3{machines=8 pods=1}"},
		{"t4", 8, 2, 1, ""},
		{"t1", 0, 2, 1, ""},
		{"t2", 8, 3, 1, ""},
		{"t2", 8, 0, 1, ""},
		{"t2", 8, 2, 3, ""},
	} {
		topo, err := ByName(tc.kind, tc.machines, tc.pods, tc.lvl, 42)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ByName(%q, %d, %d, %d) = %v, want an error", tc.kind, tc.machines, tc.pods, tc.lvl, topo)
			}
			continue
		}
		if err != nil || topo.String() != tc.want {
			t.Errorf("ByName(%q, %d, %d, %d) = %v, %v; want %s", tc.kind, tc.machines, tc.pods, tc.lvl, topo, err, tc.want)
		}
	}
}
