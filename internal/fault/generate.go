package fault

import (
	"math/rand"

	"repro/internal/cluster"
)

// GenConfig parameterizes the seeded chaos-schedule generator.
type GenConfig struct {
	// Machines is the cluster size faults are drawn over.
	Machines int
	// Horizon is the virtual-time span faults land in; windows are drawn
	// from [0.05·Horizon, 0.95·Horizon] so they overlap real work.
	Horizon float64
	// Degrades, Drops and Slowdowns count the faults of each class.
	Degrades  int
	Drops     int
	Slowdowns int
	// Kills is the number of permanent machine deaths to draw (returned
	// beside the schedule; a caller that wants them sets Schedule.Kills).
	Kills int
	// Joins is the number of elastic machine joins to draw. Join targets
	// are the machines [Machines, Machines+Joins) — callers must provision
	// the topology that large (cluster.Expand) and size validation against
	// Machines+Joins.
	Joins int
	// Drains is the number of graceful machine drains to draw, over
	// distinct initially-live machines (never machine 0, never a killed
	// machine). Deadlines mix loose (migration completes) and tight
	// (degrades into the death path) so churn exercises both outcomes.
	Drains int
	// Seed drives every random choice.
	Seed int64
}

// Generate draws a random but fully deterministic fault schedule: link
// degradations, transfer-drop windows, straggler slowdowns, joins and
// drains, with the machine kills returned beside it. Distinct machines are
// killed (never machine 0, so a live machine always remains) and drop windows are kept short relative to the horizon
// so retries always eventually succeed.
func Generate(cfg GenConfig) (*Schedule, []Kill) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Schedule{}
	// Every product that meets a sum is rounded by a float64 conversion, so
	// no platform fuses the two into one multiply-add (DESIGN.md); an
	// inlined rng.Float64() is such a product.
	window := func(maxLen float64) (float64, float64) {
		lo, hi := float64(0.05*cfg.Horizon), float64(0.95*cfg.Horizon)
		from := lo + float64(rng.Float64()*(hi-lo))
		until := from + float64((0.05+float64(rng.Float64()))*maxLen)
		return from, until
	}
	pair := func() (cluster.MachineID, cluster.MachineID) {
		src := cluster.MachineID(rng.Intn(cfg.Machines))
		dst := cluster.MachineID(rng.Intn(cfg.Machines))
		for dst == src {
			dst = cluster.MachineID(rng.Intn(cfg.Machines))
		}
		return src, dst
	}
	for i := 0; i < cfg.Degrades; i++ {
		src, dst := pair()
		from, until := window(0.3 * cfg.Horizon)
		s.Links = append(s.Links, LinkFault{
			Src: src, Dst: dst, From: from, Until: until,
			Factor: 2 + float64(rng.Float64()*6),
		})
	}
	for i := 0; i < cfg.Drops; i++ {
		src, dst := pair()
		from, until := window(0.15 * cfg.Horizon)
		s.Drops = append(s.Drops, LinkFault{Src: src, Dst: dst, From: from, Until: until})
	}
	for i := 0; i < cfg.Slowdowns; i++ {
		m := cluster.MachineID(rng.Intn(cfg.Machines))
		from, until := window(0.5 * cfg.Horizon)
		s.Slowdowns = append(s.Slowdowns, Slowdown{
			Machine: m, From: from, Until: until,
			Factor: 2 + float64(rng.Float64()*4),
		})
	}
	var kills []Kill
	used := map[cluster.MachineID]bool{0: true}
	for i := 0; i < cfg.Kills && len(used) < cfg.Machines; i++ {
		m := cluster.MachineID(1 + rng.Intn(cfg.Machines-1))
		for used[m] {
			m = cluster.MachineID(1 + rng.Intn(cfg.Machines-1))
		}
		used[m] = true
		kills = append(kills, Kill{
			Machine: m,
			At:      (0.1 + float64(0.6*rng.Float64())) * cfg.Horizon,
		})
	}
	for i := 0; i < cfg.Joins; i++ {
		s.Joins = append(s.Joins, MachineJoin{
			Machine: cluster.MachineID(cfg.Machines + i),
			At:      (0.05 + float64(0.5*rng.Float64())) * cfg.Horizon,
			NICs:    0,
		})
	}
	// Drains pick distinct initially-live machines, avoiding machine 0 and
	// the killed set so a drain never races a death of the same machine.
	for i := 0; i < cfg.Drains && len(used) < cfg.Machines; i++ {
		m := cluster.MachineID(1 + rng.Intn(cfg.Machines-1))
		for used[m] {
			m = cluster.MachineID(1 + rng.Intn(cfg.Machines-1))
		}
		used[m] = true
		at := float64((0.1 + float64(0.5*rng.Float64())) * cfg.Horizon)
		// Alternate loose and tight deadlines: loose drains migrate out
		// cleanly, tight ones expire into the death/failover path.
		slack := float64(0.5 * cfg.Horizon)
		if i%2 == 1 {
			slack = float64(0.01 * cfg.Horizon)
		}
		s.Drains = append(s.Drains, MachineDrain{
			Machine: m, At: at, Deadline: at + slack,
		})
	}
	return s, kills
}
