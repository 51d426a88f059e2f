package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// Raw event-stream export: unlike the Chrome export (a rendering), this
// format round-trips the exact Event stream — Seq/Cause edges included — so
// surfer-analyze can rebuild the causal DAG and surfer-trace -breakdown can
// recompute the job→stage→machine hierarchy from a file. The header embeds
// the cluster's bandwidth matrix, which is what the analyzer's
// bisection-level link report needs; a trace therefore carries everything
// required to attribute its own makespan.
//
// The bytes are those encoding/json would produce for Stream, but neither
// direction goes through reflection: appendEvent writes an event's fields
// into a reused line buffer and ScanEvents tokenises the file straight from
// the reader into a reused Event. Only the topology header, once per file,
// and a string with escapes or non-ASCII bytes are still encoding/json's. The reflection round trip survives in
// codec_test.go as the reference both are fuzzed against.

// StreamFormat and StreamVersion identify the raw trace file format. The
// version bumps whenever Event gains fields analysis depends on.
const (
	StreamFormat  = "surfer-trace-events"
	StreamVersion = 1
)

// TopoInfo is the topology header of a raw trace: enough of the cluster
// model to rebuild the machine graph (per-pair bandwidth) without the
// generating process.
type TopoInfo struct {
	Name     string `json:"name"`
	Machines int    `json:"machines"`
	// Bandwidth is the full pairwise bandwidth matrix in bytes/second
	// (diagonal = loopback), row-major [src][dst].
	Bandwidth [][]float64 `json:"bandwidth"`
}

// Stream is a parsed raw trace file.
type Stream struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Topo    *TopoInfo `json:"topology,omitempty"`
	Events  []Event   `json:"events"`
}

// writeBlock is how much encoded output WriteEvents gathers before it calls
// the writer: a capture handed a bare *os.File costs one write(2) per block,
// not two per event.
const writeBlock = 64 << 10

// WriteEvents writes the event stream (with an optional topology header) as
// raw trace JSON: one event per line, struct-driven field order, so
// identical streams produce byte-identical files — the same determinism
// guarantee the Chrome export carries. Output reaches w in blocks of at
// least writeBlock bytes (the last one excepted).
func WriteEvents(w io.Writer, topo *TopoInfo, events []Event) error {
	buf := make([]byte, 0, writeBlock+4096)
	buf = append(buf, `{"format":"`+StreamFormat+`","version":`...)
	buf = strconv.AppendInt(buf, StreamVersion, 10)
	if topo != nil {
		hdr, err := json.Marshal(topo)
		if err != nil {
			return err
		}
		buf = append(buf, `,"topology":`...)
		buf = append(buf, hdr...)
	}
	buf = append(buf, `,"events":[`+"\n"...)
	for i := range events {
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		var err error
		if buf, err = appendEvent(buf, &events[i]); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if len(buf) >= writeBlock {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "\n]}\n"...)
	_, err := w.Write(buf)
	return err
}

// appendEvent appends ev as the JSON object encoding/json.Marshal renders
// for it: fields in struct order, omitempty fields left out at their zero
// value (a negative zero counts as zero), json's number and string forms.
// A NaN or infinite float is an error, as it is for json.Marshal.
func appendEvent(dst []byte, ev *Event) ([]byte, error) {
	for _, f := range [...]float64{ev.Time, ev.Start, ev.End, ev.Stall} {
		if f-f != 0 { // NaN or ±Inf
			return dst, fmt.Errorf("unsupported float value %v", f)
		}
	}
	dst = append(dst, `{"kind":`...)
	dst = strconv.AppendUint(dst, uint64(ev.Kind), 10)
	dst = appendInt(dst, `,"seq":`, int64(ev.Seq), false)
	dst = appendInt(dst, `,"cause":`, int64(ev.Cause), false)
	dst = appendString(dst, `,"job":`, ev.Job)
	dst = appendString(dst, `,"stage":`, ev.Stage)
	dst = appendString(dst, `,"tenant":`, ev.Tenant)
	dst = appendString(dst, `,"name":`, ev.Name)
	dst = appendInt(dst, `,"machine":`, int64(ev.Machine), false)
	dst = appendInt(dst, `,"dst":`, int64(ev.Dst), false)
	dst = appendInt(dst, `,"part":`, int64(ev.Part), false)
	dst = appendInt(dst, `,"bytes":`, ev.Bytes, true)
	dst = appendFloat(dst, `,"time":`, ev.Time, false)
	dst = appendFloat(dst, `,"start":`, ev.Start, true)
	dst = appendFloat(dst, `,"end":`, ev.End, true)
	dst = appendFloat(dst, `,"stall":`, ev.Stall, true)
	if ev.Incast {
		dst = append(dst, `,"incast":true`...)
	}
	dst = appendInt(dst, `,"attempt":`, int64(ev.Attempt), true)
	if ev.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}'), nil
}

func appendInt(dst []byte, key string, v int64, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendFloat renders f as encoding/json does (the ES6 number form): plain
// decimals, except exponent form below 1e-6 and from 1e21, where a
// single-digit negative exponent loses its padding zero (e-07 → e-7).
func appendFloat(dst []byte, key string, f float64, omitEmpty bool) []byte {
	if omitEmpty && f == 0 {
		return dst
	}
	dst = append(dst, key...)
	abs := f
	if abs < 0 {
		abs = -abs
	}
	if abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString renders a non-empty s as encoding/json does with HTML
// escaping on: ", \ and control bytes escaped (\b \f \n \r \t by name),
// <, > and & as \u00XX, U+2028/9 as \u202X, invalid UTF-8 as \ufffd.
func appendString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ReadEvents parses a raw trace file and validates its envelope: the format
// marker, a supported version, and consistent Seq numbering (Seq == stream
// position, Cause < Seq) so DAG reconstruction can index events directly.
// It is ScanEvents collecting into a Recorder, whose Emit re-assigns the Seq
// ScanEvents has just checked.
func ReadEvents(r io.Reader) (*Stream, error) {
	var s *Stream
	rec := NewRecorder()
	err := ScanEvents(r, func(hdr *Stream) error {
		s = hdr
		return nil
	}, func(ev *Event) error {
		rec.Emit(*ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.Events = rec.Events(); s.Events == nil {
		s.Events = []Event{} // "events":[] decodes to an empty list, not to none
	}
	return s, nil
}

// ScanEvents reads a raw trace file in one sequential pass without holding
// the stream: header is called once with the validated envelope (Format,
// Version, Topo; Events nil) before the first event, then fn with every
// event in stream order, each already checked for Seq == position and
// Cause < Seq. The *Event is reused between calls — copy what must outlive
// one (its strings are safe to keep). An error from either callback stops
// the scan and is returned as is. Input refused before its envelope names
// StreamFormat is ErrNotStream, unless the reader itself failed.
//
// Accepted grammar (docs/METRICS.md §5): one JSON object whose format,
// version and topology keys precede events; any JSON whitespace; inside an
// event any key order, unknown keys skipped, null leaving a field at zero.
func ScanEvents(r io.Reader, header func(*Stream) error, fn func(*Event) error) error {
	d := newDecoder(r)
	return d.classify(d.stream(header, fn))
}

// checkHeader validates the envelope of a raw trace.
func checkHeader(s *Stream) error {
	if s.Format != StreamFormat {
		return fmt.Errorf("%w (format %q, want %q — Chrome exports cannot be analyzed, re-capture with -events)", ErrNotStream, s.Format, StreamFormat)
	}
	if s.Version != StreamVersion {
		return fmt.Errorf("trace: unsupported raw trace version %d (want %d)", s.Version, StreamVersion)
	}
	if s.Topo != nil {
		if s.Topo.Machines != len(s.Topo.Bandwidth) {
			return fmt.Errorf("trace: topology header claims %d machines but carries a %d-row bandwidth matrix", s.Topo.Machines, len(s.Topo.Bandwidth))
		}
		for i, row := range s.Topo.Bandwidth {
			if len(row) != s.Topo.Machines {
				return fmt.Errorf("trace: bandwidth matrix row %d has %d entries, want %d", i, len(row), s.Topo.Machines)
			}
		}
	}
	return nil
}
