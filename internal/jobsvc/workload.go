package jobsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
)

// JobSpec is one submission of a multi-tenant workload: who wants what run,
// when, and how urgently. App and Iterations select the plan (see Planner);
// the rest drives scheduling.
type JobSpec struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant"`
	Priority int     `json:"priority"`
	Submit   float64 `json:"submit"`
	// App names the application to plan ("rank" or "reach").
	App string `json:"app"`
	// Iterations is the propagation iteration count (plan length).
	Iterations int `json:"iterations"`
}

// WorkloadFormat / WorkloadVersion identify the jobs-file format consumed
// by cmd/surfer-submit.
const (
	WorkloadFormat  = "surfer-jobs"
	WorkloadVersion = 1
)

// Workload is a jobs file: the arrival schedule of a multi-tenant run.
type Workload struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Jobs    []JobSpec `json:"jobs"`
}

// Validate checks the envelope and every spec.
func (w *Workload) Validate() error {
	if w.Format != WorkloadFormat {
		return fmt.Errorf("jobsvc: not a jobs file (format %q, want %q)", w.Format, WorkloadFormat)
	}
	if w.Version != WorkloadVersion {
		return fmt.Errorf("jobsvc: unsupported jobs-file version %d (want %d)", w.Version, WorkloadVersion)
	}
	seen := make(map[string]bool, len(w.Jobs))
	for i, js := range w.Jobs {
		if js.ID == "" {
			return fmt.Errorf("jobsvc: job %d has no id", i)
		}
		if seen[js.ID] {
			return fmt.Errorf("jobsvc: duplicate job id %q", js.ID)
		}
		seen[js.ID] = true
		if js.Tenant == "" {
			return fmt.Errorf("jobsvc: job %q has no tenant", js.ID)
		}
		if js.Submit < 0 {
			return fmt.Errorf("jobsvc: job %q submits at negative time %g", js.ID, js.Submit)
		}
		if js.Iterations <= 0 {
			return fmt.Errorf("jobsvc: job %q asks for %d iterations", js.ID, js.Iterations)
		}
	}
	return nil
}

// WriteWorkload writes a jobs file: one spec per line, struct-driven field
// order, byte-identical for identical workloads.
func WriteWorkload(w io.Writer, wl *Workload) error {
	if _, err := fmt.Fprintf(w, "{\"format\":%q,\"version\":%d,\"jobs\":[\n", WorkloadFormat, WorkloadVersion); err != nil {
		return err
	}
	for i := range wl.Jobs {
		line, err := json.Marshal(&wl.Jobs[i])
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// ReadWorkload parses and validates a jobs file.
func ReadWorkload(r io.Reader) (*Workload, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var wl Workload
	if err := json.Unmarshal(data, &wl); err != nil {
		return nil, fmt.Errorf("jobsvc: invalid jobs-file JSON: %w", err)
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return &wl, nil
}

// GenConfig sizes a seeded synthetic arrival workload.
type GenConfig struct {
	// Jobs is the submission count, Tenants the tenant population
	// (tenant-00 … tenant-NN, round-robin weighted by the rng).
	Jobs    int
	Tenants int
	// MeanGap is the mean inter-arrival gap in virtual seconds
	// (exponentially distributed). <= 0 selects 0.002.
	MeanGap float64
	// MaxPriority bounds priorities: drawn uniformly from [0, MaxPriority].
	MaxPriority int
	// MaxIterations bounds plan length: drawn from [1, MaxIterations]
	// (<= 0 selects 2).
	MaxIterations int
	// Seed drives every random choice.
	Seed int64
}

// GenerateWorkload draws a seeded arrival workload: Poisson-ish arrivals,
// random tenant/priority/app/iterations per job. Identical configs produce
// identical workloads.
func GenerateWorkload(cfg GenConfig) *Workload {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = 0.002
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wl := &Workload{Format: WorkloadFormat, Version: WorkloadVersion}
	at := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		if i > 0 {
			at += float64(rng.ExpFloat64() * cfg.MeanGap) // rounded: no fused multiply-add (DESIGN.md)
		}
		app := Apps[rng.Intn(len(Apps))]
		wl.Jobs = append(wl.Jobs, JobSpec{
			ID:         fmt.Sprintf("job-%03d", i),
			Tenant:     fmt.Sprintf("tenant-%02d", rng.Intn(cfg.Tenants)),
			Priority:   rng.Intn(cfg.MaxPriority + 1),
			Submit:     at,
			App:        app,
			Iterations: 1 + rng.Intn(cfg.MaxIterations),
		})
	}
	return wl
}

// LatencyPercentile is the q-quantile (0 ≤ q ≤ 1) of finished jobs'
// submit→finish latencies, by the nearest-rank method; 0 when no job
// finished.
func LatencyPercentile(recs []Record, q float64) float64 {
	var lats []float64
	for _, r := range recs {
		if !r.Rejected {
			lats = append(lats, r.Latency())
		}
	}
	if len(lats) == 0 {
		return 0
	}
	sort.Float64s(lats)
	rank := int(math.Ceil(q*float64(len(lats)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(lats) {
		rank = len(lats) - 1
	}
	return lats[rank]
}

// MeanWait is the mean submit→admit queueing delay over finished jobs.
func MeanWait(recs []Record) float64 {
	sum, n := 0.0, 0
	for _, r := range recs {
		if !r.Rejected {
			sum += r.WaitSeconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TenantService sums delivered machine-seconds per tenant, returned in
// sorted tenant order (deterministic).
func TenantService(recs []Record) ([]string, []float64) {
	byTenant := make(map[string]float64)
	for _, r := range recs {
		byTenant[r.Tenant] += r.MachineSeconds
	}
	tenants := make([]string, 0, len(byTenant))
	for t := range byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	service := make([]float64, len(tenants))
	for i, t := range tenants {
		service[i] = byTenant[t]
	}
	return tenants, service
}

// JainIndex is Jain's fairness index (Σx)² / (n·Σx²) over an allocation
// vector: 1 when perfectly even, 1/n when one party gets everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += float64(x * x) // rounded: no fused multiply-add (DESIGN.md)
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
