package engine

// Metrics aggregates the four quantities the paper reports for every
// experiment (§F.1): response time, total machine time, total network I/O
// and total disk I/O.
type Metrics struct {
	// ResponseSeconds is the elapsed virtual time from job submission to
	// completion.
	ResponseSeconds float64
	// MachineSeconds is the busy time summed over all machines.
	MachineSeconds float64
	// NetworkBytes counts bytes moved between distinct machines
	// (intra-machine transfers are free and uncounted, like the paper's
	// network I/O metric).
	NetworkBytes int64
	// DiskBytes counts bytes read from or written to local disks.
	DiskBytes int64
	// TasksRun counts task executions including re-executions.
	TasksRun int
	// Recoveries counts task re-executions due to machine failures.
	Recoveries int
	// TransferDrops counts transfers failed by transient link faults;
	// TransferRetries counts their backoff re-issues. Retried bytes are
	// only added to NetworkBytes when an attempt succeeds.
	TransferDrops   int
	TransferRetries int
	// Speculations counts backup task copies the job manager launched
	// against stragglers. A backup that loses the race still shows up in
	// TasksRun and MachineSeconds — wasted work is real work.
	Speculations int
	// Checkpoints and Restores count iteration-checkpoint commits and
	// rollback restores recorded by multi-iteration drivers.
	Checkpoints int
	Restores    int
	// Joins and Drains count elastic membership events fired: machines
	// that went live mid-run and machines that began a graceful drain
	// (a drain whose deadline expires additionally shows up in the death
	// metrics via the failover path).
	Joins  int
	Drains int
	// Migrations counts committed live partition migrations (including
	// instant zero-byte rehomes); MigrationBytes is the delivered
	// migration volume, also included in NetworkBytes — migration traffic
	// is real traffic.
	Migrations     int
	MigrationBytes int64
}

// Add accumulates other into m (for multi-iteration jobs).
func (m *Metrics) Add(other Metrics) {
	m.ResponseSeconds += other.ResponseSeconds
	m.MachineSeconds += other.MachineSeconds
	m.NetworkBytes += other.NetworkBytes
	m.DiskBytes += other.DiskBytes
	m.TasksRun += other.TasksRun
	m.Recoveries += other.Recoveries
	m.TransferDrops += other.TransferDrops
	m.TransferRetries += other.TransferRetries
	m.Speculations += other.Speculations
	m.Checkpoints += other.Checkpoints
	m.Restores += other.Restores
	m.Joins += other.Joins
	m.Drains += other.Drains
	m.Migrations += other.Migrations
	m.MigrationBytes += other.MigrationBytes
}
