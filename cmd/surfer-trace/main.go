// surfer-trace validates and summarizes trace files. It understands both
// export formats: the Chrome trace_event JSON written by -trace (a
// rendering for chrome://tracing) and the raw event stream written by
// -events (the exact engine stream, causal edges included). The format is
// sniffed from the file, structural invariants are checked, and a short
// summary is printed; a malformed file exits nonzero, which makes the tool
// usable as a CI gate.
//
// Usage:
//
//	surfer-trace -in trace.json
//	surfer-trace -in run.events -breakdown
//
// -breakdown prints the job → stage → machine accounting table
// (trace.Summarize) and needs the raw stream; Chrome exports drop the
// information it is computed from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/trace"
)

// traceFile mirrors the Chrome exporter's top-level object.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// traceEvent carries the fields surfer-trace checks; unknown fields are
// ignored so the format can grow.
type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Cat  string          `json:"cat"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   float64         `json:"ts"`
	Dur  *float64        `json:"dur"`
	Args json.RawMessage `json:"args"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("surfer-trace: ")
	in := flag.String("in", "", "trace file to validate (Chrome trace_event JSON or raw event stream)")
	breakdown := flag.Bool("breakdown", false, "print the job→stage→machine accounting table (raw event streams only)")
	flag.Parse()
	if *in == "" {
		log.Fatal("missing -in trace.json")
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	// The raw-trace marker sits in the first bytes of the file: sniff it,
	// then read the file once, from the start, as what it is.
	raw := trace.SniffFormat(f) == trace.StreamFormat
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		log.Fatal(err)
	}
	if raw {
		checkRaw(*in, f, *breakdown)
		return
	}
	if *breakdown {
		log.Fatalf("%s: -breakdown needs a raw event stream (surfer-run -events); Chrome exports drop the event fields it is computed from", *in)
	}
	checkChrome(*in, f)
}

// checkRaw validates a raw event stream (the scan enforces the seq/cause
// invariants) and summarizes it as it streams by; only the
// job → stage → machine table of -breakdown needs the events kept.
func checkRaw(path string, r io.Reader, breakdown bool) {
	var hdr *trace.Stream
	var events []trace.Event
	var n int
	var maxEnd float64
	err := trace.ScanEvents(r, func(s *trace.Stream) error {
		hdr = s
		return nil
	}, func(ev *trace.Event) error {
		n++
		maxEnd = max(maxEnd, ev.Time, ev.End)
		if breakdown {
			events = append(events, *ev)
		}
		return nil
	})
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	fmt.Printf("%s: OK (raw event stream v%d)\n", path, hdr.Version)
	fmt.Printf("events:    %d\n", n)
	if hdr.Topo != nil {
		fmt.Printf("topology:  %s (%d machines)\n", hdr.Topo.Name, hdr.Topo.Machines)
	}
	fmt.Printf("time span: %.3f ms virtual\n", maxEnd*1e3)
	if breakdown {
		fmt.Println()
		printBreakdown(trace.Summarize(events))
	}
}

// printBreakdown renders the Summarize hierarchy as text.
func printBreakdown(b *trace.Breakdown) {
	fmt.Printf("breakdown (job -> stage -> machine)\n")
	for _, jb := range b.Jobs {
		fmt.Printf("job %-24s [%10.6f .. %10.6f]\n", jb.Name, jb.Begin, jb.End)
		for _, sb := range jb.Stages {
			fmt.Printf("  stage %-20s [%10.6f .. %10.6f]\n", sb.Name, sb.Begin, sb.End)
			for _, mb := range sb.Machines {
				fmt.Printf("    m%-3d compute=%.6fs tasks=%d egress=%dB/%.6fs ingress=%dB/%.6fs stall=%.6fs incast=%.6fs",
					mb.Machine, mb.ComputeSeconds, mb.TasksRun,
					mb.EgressBytes, mb.EgressBusySeconds,
					mb.IngressBytes, mb.IngressBusySeconds,
					mb.StallSeconds, mb.IncastStallSeconds)
				if mb.Retries > 0 {
					fmt.Printf(" retries=%d", mb.Retries)
				}
				if mb.TasksLost > 0 {
					fmt.Printf(" lost=%d", mb.TasksLost)
				}
				if mb.TransferDrops > 0 {
					fmt.Printf(" drops=%d dropstall=%.6fs", mb.TransferDrops, mb.DropStallSeconds)
				}
				if mb.TransferRetries > 0 {
					fmt.Printf(" xfer-retries=%d", mb.TransferRetries)
				}
				if mb.Speculations > 0 {
					fmt.Printf(" speculations=%d", mb.Speculations)
				}
				if mb.Failed {
					fmt.Printf(" FAILED")
				}
				fmt.Printf("\n")
			}
		}
	}
	if b.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d (%s)\n", b.Checkpoints, strings.Join(b.CheckpointJobs, ", "))
	}
	if b.Restores > 0 {
		fmt.Printf("restores:    %d (%s)\n", b.Restores, strings.Join(b.RestoreJobs, ", "))
	}
}

// checkChrome validates a Chrome trace_event export.
func checkChrome(path string, r io.Reader) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		log.Fatalf("%s: invalid JSON: %v", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		log.Fatalf("%s: invalid JSON: data after the top-level value", path)
	}
	if len(tf.TraceEvents) == 0 {
		log.Fatalf("%s: no trace events", path)
	}

	byPhase := map[string]int{}
	pids := map[int]bool{}
	var spans, instants int
	var maxEnd float64
	for i, ev := range tf.TraceEvents {
		byPhase[ev.Ph]++
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				log.Fatalf("%s: event %d (%q): complete event without dur", path, i, ev.Name)
			}
			if *ev.Dur < 0 {
				log.Fatalf("%s: event %d (%q): negative duration %v", path, i, ev.Name, *ev.Dur)
			}
			if end := ev.Ts + *ev.Dur; end > maxEnd {
				maxEnd = end
			}
			spans++
		case "i":
			instants++
		case "M":
			// metadata events carry no timing
		default:
			log.Fatalf("%s: event %d (%q): unexpected phase %q", path, i, ev.Name, ev.Ph)
		}
		if ev.Ph != "M" {
			if ev.Ts < 0 {
				log.Fatalf("%s: event %d (%q): negative timestamp %v", path, i, ev.Name, ev.Ts)
			}
			pids[ev.Pid] = true
		}
	}

	fmt.Printf("%s: OK\n", path)
	fmt.Printf("events:    %d (%d spans, %d instants, %d metadata)\n",
		len(tf.TraceEvents), spans, instants, byPhase["M"])
	fmt.Printf("processes: %d\n", len(pids))
	fmt.Printf("time span: %.3f ms virtual\n", maxEnd/1e3)
}
