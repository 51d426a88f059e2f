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
	"errors"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/trace"
)

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func tool(stdout, stderr io.Writer) cli.Tool {
	fs := cli.Flags("surfer-trace", stderr)
	in := fs.String("in", "", "trace file to validate (Chrome trace_event JSON or raw event stream)")
	breakdown := fs.Bool("breakdown", false, "print the job→stage→machine accounting table (raw event streams only)")
	return cli.Tool{Flags: fs,
		Args: map[string]cli.Arity{"": {Say: "positional args are not read (the file to check is -in's value): %s"}},
		Body: func([]string) error {
			if *in == "" {
				return cli.Usage(errors.New("missing -in trace.json"))
			}
			// The scan refuses a file that has not named the raw-trace format
			// before its body; what it refuses so is read as the other export.
			err := checkRaw(stdout, *in, *breakdown)
			if !errors.Is(err, trace.ErrNotStream) {
				return err
			}
			if *breakdown {
				return fmt.Errorf("%s: -breakdown needs a raw event stream (surfer-run -events); Chrome exports drop the event fields it is computed from", *in)
			}
			return checkChrome(stdout, *in)
		}}
}

// checkRaw validates a raw event stream (the scan enforces the seq/cause
// invariants) and summarizes it as it streams by; only the
// job → stage → machine table of -breakdown needs the events kept.
func checkRaw(w io.Writer, path string, breakdown bool) error {
	var hdr *trace.Stream
	var events []trace.Event
	var n int
	var maxEnd float64
	err := trace.ScanFile(path, func(s *trace.Stream) error {
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
		return err
	}
	fmt.Fprintf(w, "%s: OK (raw event stream v%d)\n", path, hdr.Version)
	fmt.Fprintf(w, "events:    %d\n", n)
	if hdr.Topo != nil {
		fmt.Fprintf(w, "topology:  %s (%d machines)\n", hdr.Topo.Name, hdr.Topo.Machines)
	}
	fmt.Fprintf(w, "time span: %.3f ms virtual\n", maxEnd*1e3)
	if breakdown {
		fmt.Fprintln(w)
		trace.Summarize(events).WriteText(w)
	}
	return nil
}

// checkChrome validates a Chrome trace_event export.
func checkChrome(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// The fields the checks read; the export's other fields are ignored, so
	// the format can grow.
	var tf struct {
		TraceEvents []struct {
			Name, Ph string
			Pid      int
			Ts       float64
			Dur      *float64
		}
	}
	dec := json.NewDecoder(f)
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("%s: invalid JSON: %v", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%s: invalid JSON: data after the top-level value", path)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: no trace events", path)
	}

	pids := map[int]bool{}
	var spans, instants, metadata int
	var maxEnd float64
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				return fmt.Errorf("%s: event %d (%q): complete event without dur", path, i, ev.Name)
			}
			if *ev.Dur < 0 {
				return fmt.Errorf("%s: event %d (%q): negative duration %v", path, i, ev.Name, *ev.Dur)
			}
			if end := ev.Ts + *ev.Dur; end > maxEnd {
				maxEnd = end
			}
			spans++
		case "i":
			instants++
		case "M":
			metadata++ // metadata events carry no timing
		default:
			return fmt.Errorf("%s: event %d (%q): unexpected phase %q", path, i, ev.Name, ev.Ph)
		}
		if ev.Ph != "M" {
			if ev.Ts < 0 {
				return fmt.Errorf("%s: event %d (%q): negative timestamp %v", path, i, ev.Name, ev.Ts)
			}
			pids[ev.Pid] = true
		}
	}

	fmt.Fprintf(w, "%s: OK\n", path)
	fmt.Fprintf(w, "events:    %d (%d spans, %d instants, %d metadata)\n",
		len(tf.TraceEvents), spans, instants, metadata)
	fmt.Fprintf(w, "processes: %d\n", len(pids))
	fmt.Fprintf(w, "time span: %.3f ms virtual\n", maxEnd/1e3)
	return nil
}
