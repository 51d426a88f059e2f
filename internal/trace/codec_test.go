package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The reference: the encoding/json round trip the codec replaced, kept as it
// was so the fuzz targets below can hold the codec to it.

func referenceWriteEvents(w io.Writer, topo *TopoInfo, events []Event) error {
	if _, err := fmt.Fprintf(w, "{\"format\":%q,\"version\":%d", StreamFormat, StreamVersion); err != nil {
		return err
	}
	if topo != nil {
		hdr, err := json.Marshal(topo)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, ",\"topology\":"); err != nil {
			return err
		}
		if _, err := w.Write(hdr); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, ",\"events\":[\n"); err != nil {
		return err
	}
	for i := range events {
		line, err := json.Marshal(&events[i])
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

func referenceReadEvents(r io.Reader) (*Stream, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var s Stream
	if err := json.Unmarshal(data, &s); err != nil {
		var syn *json.SyntaxError
		if errors.As(err, &syn) && syn.Offset >= int64(len(data)) {
			return nil, fmt.Errorf("trace: raw trace file is truncated after %d bytes: %w", len(data), err)
		}
		return nil, fmt.Errorf("trace: invalid raw trace JSON: %w", err)
	}
	if err := checkHeader(&s); err != nil {
		return nil, err
	}
	for i := range s.Events {
		ev := &s.Events[i]
		if ev.Seq != i {
			return nil, fmt.Errorf("trace: event %d carries seq %d; stream is reordered or truncated", i, ev.Seq)
		}
		if ev.Cause < None || ev.Cause >= ev.Seq {
			return nil, fmt.Errorf("trace: event %d has acausal cause %d", i, ev.Cause)
		}
	}
	return &s, nil
}

// awkwardStrings and awkwardFloats are the values the two encoders are most
// likely to disagree on.
var (
	awkwardStrings = []string{
		"", "t-p1", "a\"b\\c", "\x00\x01\x1f\x7f", "\b\f\n\r\t", "<script>&amp;</script>",
		"caf\u00e9 \u4e16\u754c \U0001F600", "line\u2028sep\u2029", "bad\xff\xfeutf8\xc0", "\xed\xa0\x80", "rule@tenant-wait-p99:tenant-1",
	}
	awkwardFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e20, 1e21, -1e21, 1.7e300,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 123456789.12345679, 0.36342857142857143, 62.5e6,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	awkwardInts = []int64{0, 1, -1, 255, 1 << 31, -(1 << 31), math.MaxInt64, math.MinInt64}
)

// checkAppendEvent holds appendEvent to json.Marshal on one event.
func checkAppendEvent(t *testing.T, ev *Event) {
	t.Helper()
	want, wantErr := json.Marshal(ev)
	got, err := appendEvent([]byte("prefix"), ev)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendEvent error %v, json.Marshal error %v", *ev, err, wantErr)
	}
	if err == nil && string(got) != "prefix"+string(want) {
		t.Fatalf("%+v:\n got %s\nwant %s", *ev, got[len("prefix"):], want)
	}
}

// TestAppendEventMatchesMarshal sweeps every awkward value through every
// field of its type.
func TestAppendEventMatchesMarshal(t *testing.T) {
	for _, s := range awkwardStrings {
		checkAppendEvent(t, &Event{Job: s, Stage: s, Tenant: s, Name: s})
		checkAppendEvent(t, &Event{Name: s + s})
	}
	for _, f := range awkwardFloats {
		checkAppendEvent(t, &Event{Time: f})
		checkAppendEvent(t, &Event{Start: f})
		checkAppendEvent(t, &Event{End: f, Stall: -f})
	}
	for _, i := range awkwardInts {
		checkAppendEvent(t, &Event{Kind: EventKind(i), Seq: int(i), Cause: int(i), Machine: int(i), Dst: int(i), Part: int(i), Bytes: i, Attempt: int(i)})
	}
	checkAppendEvent(t, &Event{Incast: true})
	checkAppendEvent(t, &Event{Degraded: true, Incast: true, Kind: 255})
}

// FuzzAppendEvent: for arbitrary field values, appendEvent's bytes are
// json.Marshal's, and it refuses exactly the events json.Marshal refuses.
func FuzzAppendEvent(f *testing.F) {
	for i, s := range awkwardStrings {
		fl := awkwardFloats[i%len(awkwardFloats)]
		in := awkwardInts[i%len(awkwardInts)]
		f.Add(uint8(i), in, s, s, "", s, in, in, in, in, fl, fl, -fl, fl/3, i%2 == 0, in, i%3 == 0)
	}
	for i, fl := range awkwardFloats {
		f.Add(uint8(255-i), int64(i), "j", "", "t", "n", int64(-1), int64(3), int64(0), int64(i), fl, 0.0, fl, 0.0, false, int64(0), true)
	}
	f.Fuzz(func(t *testing.T, kind uint8, seq int64, job, stage, tenant, name string, cause, machine, dst, part int64,
		time, start, end, stall float64, incast bool, attempt int64, degraded bool) {
		checkAppendEvent(t, &Event{
			Kind: EventKind(kind), Seq: int(seq), Cause: int(cause), Job: job, Stage: stage, Tenant: tenant, Name: name,
			Machine: int(machine), Dst: int(dst), Part: int(part), Bytes: part ^ seq, Time: time, Start: start, End: end,
			Stall: stall, Incast: incast, Attempt: int(attempt), Degraded: degraded,
		})
	})
}

// awkwardEvents is a valid stream carrying the awkward values.
func awkwardEvents() []Event {
	var events []Event
	add := func(ev Event) {
		ev.Seq, ev.Cause = len(events), len(events)-1
		events = append(events, ev)
	}
	for _, s := range awkwardStrings {
		add(Event{Kind: KindTransfer, Job: s, Stage: s, Tenant: s, Name: s, Machine: 3, Dst: None, Part: 7, Bytes: math.MaxInt64})
	}
	for _, f := range awkwardFloats {
		if f-f == 0 {
			add(Event{Kind: 255, Time: f, Start: -f, End: f / 3, Stall: f, Incast: true, Attempt: math.MinInt64, Degraded: true})
		}
	}
	return events
}

// TestWriteEventsMatchesReference: whole files, with and without a header.
func TestWriteEventsMatchesReference(t *testing.T) {
	topo := &TopoInfo{Name: "T<1>", Machines: 2, Bandwidth: [][]float64{{1e9, 1e-7}, {1e21, 0}}}
	for _, events := range [][]Event{nil, manyEvents(50), awkwardEvents()} {
		for _, ti := range []*TopoInfo{nil, topo} {
			var got, want bytes.Buffer
			if err := WriteEvents(&got, ti, events); err != nil {
				t.Fatal(err)
			}
			if err := referenceWriteEvents(&want, ti, events); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteEvents differs from the reference:\n got %s\nwant %s", got.Bytes(), want.Bytes())
			}
			s, err := ReadEvents(&got)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceReadEvents(&want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, ref) {
				t.Fatalf("ReadEvents differs from the reference:\n got %+v\nwant %+v", s, ref)
			}
		}
	}
	if err := WriteEvents(io.Discard, nil, []Event{{Time: math.NaN()}}); err == nil {
		t.Fatal("NaN time written")
	}
}

// readSeeds are inputs on the edges of the accepted grammar: each is read by
// both readers in TestReadEventsAgainstReference and seeds FuzzReadEvents.
func readSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{}
	for _, name := range []string{"valid.json", "truncated.json", "corrupt.json", "badseq.json", "chrome_golden.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	var file bytes.Buffer
	topo := &TopoInfo{Name: "T1", Machines: 2, Bandwidth: [][]float64{{1e9, 1e8}, {1e8, 1e9}}}
	if err := WriteEvents(&file, topo, awkwardEvents()); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, file.Bytes())
	const hdr = `{"format":"surfer-trace-events","version":1,"events":[`
	for _, s := range []string{
		// Whitespace and key order.
		" {\n\t\"version\" : 1 ,\r\n \"format\" : \"surfer-trace-events\" , \"events\" : [ { \"cause\" : -1 , \"seq\" : 0 } , {\"time\":1e2,\"seq\":1,\"cause\":0,\"kind\":7}\n ] } \n",
		`{"topology":{"bandwidth":[[1]],"machines":1,"name":"x"},"version":1,"format":"surfer-trace-events","events":[]}`,
		`{"events":[],"format":"surfer-trace-events","version":1}`,
		`{"format":"surfer-trace-events","version":1,"events":[],"version":1}`,
		`{"format":"surfer-trace-events","version":1,"events":[],"events":[]}`,
		`{"format":"surfer-trace-events","version":1}`,
		`{"format":"surfer-trace-events","version":1,"events":null}`,
		`{}`, `[]`, `null`, `7`, `"x"`, ``, ` `, `{`, `{"format"`, `{"format":`,
		// Unknown and nested keys, before, inside and after the events.
		`{"note":{"a":[1,{"b":null}],"c":"\u00e9\ud83d\ude00"},"format":"surfer-trace-events","version":1,"events":[{"seq":0,"cause":-1,"extra":[[],{}],"x":{"seq":9}}],"tail":[true,false]}`,
		hdr + `{"seq":0,"cause":-1,"Extra":1,"":2}]}`,
		// null values, duplicate keys.
		hdr + `{"seq":0,"cause":-1,"job":null,"time":null,"incast":null,"kind":null,"bytes":null}]}`,
		hdr + `{"seq":5,"seq":0,"cause":-1,"cause":null,"job":"a","job":"b","time":1,"time":2}]}`,
		`{"format":"x","format":"surfer-trace-events","version":2,"version":1,"topology":{"name":"a","machines":0,"bandwidth":[]},"topology":null,"events":[]}`,
		`{"format":"surfer-trace-events","version":1,"topology":{"name":"a"},"topology":{"machines":1,"bandwidth":[[2]]},"events":[]}`,
		`{"format":null,"version":null,"events":[]}`,
		// Numbers in the wrong form or range for their field.
		hdr + `{"seq":0,"cause":-1,"machine":1e2}]}`,
		hdr + `{"seq":0,"cause":-1,"machine":1.0}]}`,
		hdr + `{"seq":0,"cause":-1,"machine":01}]}`,
		hdr + `{"seq":0,"cause":-1,"machine":-}]}`,
		hdr + `{"seq":0,"cause":-1,"machine":+1}]}`,
		hdr + `{"seq":0,"cause":-1,"machine":-0}]}`,
		hdr + `{"seq":0,"cause":-1,"kind":256}]}`,
		hdr + `{"seq":0,"cause":-1,"kind":-1}]}`,
		hdr + `{"seq":0,"cause":-1,"kind":-0}]}`,
		hdr + `{"seq":0,"cause":-1,"kind":255,"bytes":9223372036854775807}]}`,
		hdr + `{"seq":0,"cause":-1,"bytes":9223372036854775808}]}`,
		hdr + `{"seq":0,"cause":-1,"bytes":-9223372036854775808}]}`,
		hdr + `{"seq":0,"cause":-1,"bytes":92233720368547758070}]}`,
		hdr + `{"seq":0,"cause":-1,"time":1e999}]}`,
		hdr + `{"seq":0,"cause":-1,"time":1e-999,"start":-0,"end":0.0e0,"stall":1E+2}]}`,
		hdr + `{"seq":0,"cause":-1,"time":.5}]}`,
		hdr + `{"seq":0,"cause":-1,"time":1.}]}`,
		hdr + `{"seq":0,"cause":-1,"time":1e}]}`,
		hdr + `{"seq":0,"cause":-1,"time":0x10}]}`,
		hdr + `{"seq":0,"cause":-1,"time":NaN}]}`,
		hdr + `{"seq":0,"cause":-1,"time":12345678901234567890123456789012345678901234567890.5}]}`,
		// Values of the wrong type.
		hdr + `{"seq":0,"cause":-1,"job":5}]}`,
		hdr + `{"seq":0,"cause":-1,"time":"1"}]}`,
		hdr + `{"seq":0,"cause":-1,"incast":"true"}]}`,
		hdr + `{"seq":0,"cause":-1,"incast":1}]}`,
		hdr + `{"seq":0,"cause":-1,"machine":true}]}`,
		hdr + `{"seq":0,"cause":-1,"name":["a"]}]}`,
		hdr + `null]}`, hdr + `1]}`, hdr + `[]]}`, hdr + `{}]}`, hdr + `{"seq":0,"cause":-1},]}`, hdr + `,]}`,
		`{"format":"surfer-trace-events","version":"1","events":[]}`,
		`{"format":"surfer-trace-events","version":1.0,"events":[]}`,
		`{"format":7,"version":1,"events":[]}`,
		`{"format":"surfer-trace-events","version":1,"topology":5,"events":[]}`,
		`{"format":"surfer-trace-events","version":1,"topology":{"machines":"2"},"events":[]}`,
		`{"format":"surfer-trace-events","version":1,"events":{}}`,
		// Strings: escapes, surrogates, invalid UTF-8, control bytes.
		hdr + `{"seq":0,"cause":-1,"job":"\"\\\/\b\f\n\r\t\u0041\u00e9\u2028","stage":"\ud83d\ude00\ud83d\ud83d\ude00\ude00\ud83dx","name":"` + "\xff\xc0caf\xc3\xa9" + `"}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"\x"}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"\'"}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"\u12"}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"\u12G4"}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"a` + "\n" + `b"}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"a` + "\x7f" + `b"}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"unterminated}]}`,
		hdr + `{"seq":0,"cause":-1,"job":"ends in backslash\`,
		// Keys: case variants, escapes, non-ASCII.
		hdr + `{"Seq":0,"cause":-1}]}`,
		hdr + `{"seq":0,"cause":-1,"KIND":3}]}`,
		hdr + `{"seq":0,"cause":-1,"\u006bind":3}]}`,
		hdr + `{"seq":0,"cause":-1,"` + "\u212aind" + `":3}]}`,
		hdr + `{"seq":0,"cause":-1,"gr` + "\u00f6" + `sse":3}]}`,
		hdr + `{"seq":0,"cause":-1,"x":{"k\u00e9y":1,"\x":2}}]}`,
		`{"Format":"surfer-trace-events","version":1,"events":[]}`,
		`{"format":"surfer-trace-events","version":1,"EVENTS":[]}`,
		// Trailing bytes, bad separators, literals cut short.
		hdr + `]}x`, hdr + `]}{}`, hdr + `]} ]`, hdr + `]},`, hdr + `]`, hdr,
		hdr + `{"seq":0 "cause":-1}]}`, hdr + `{"seq":0,"cause":-1 "x":1}]}`, hdr + `{"seq":0,"cause":-1}{"seq":1}]}`,
		hdr + `{"seq":0,"cause":-1,"incast":tru}]}`, hdr + `{"seq":0,"cause":-1,"incast":truee}]}`, hdr + `{"seq":0,"cause":-1,"incast":nul`,
		hdr + `{"seq":0,"cause":-1,"incast":false,"degraded":true}]}`,
		hdr + `{"seq":0,"cause":-1,"x":tru}]}`, hdr + `{"seq":0,"cause":-1,"x":-}]}`, hdr + `{"seq":0,"cause":-1,"x":[1,]}]}`, hdr + `{"seq":0,"cause":-1,"x":{"a":1,}}]}`,
		hdr + `{"seq":0,"cause":-1,"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}]}`,
		hdr + `{"seq":0,"cause":-1,"x":` + strings.Repeat("[", 9000) + strings.Repeat("]", 9000) + `}]}`,
		// encoding/json's nesting limit, counted from the top: the deepest
		// value it takes in an event and in the envelope, and one deeper.
		hdr + `{"seq":0,"cause":-1,"x":` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `}]}`,
		hdr + `{"seq":0,"cause":-1,"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]}`,
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"format":"surfer-trace-events","version":1,"events":[]}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"format":"surfer-trace-events","version":1,"events":[]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// smallReads hands out a reader's bytes a few at a time, so every token
// straddles a buffer refill somewhere.
type smallReads struct {
	r io.Reader
	n int
}

func (s *smallReads) Read(p []byte) (int, error) {
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}

// checkReadEvents holds ReadEvents to the reference on one input: where it
// succeeds the reference succeeds with the same stream, and it never fails
// on a file WriteEvents wrote. It may be stricter, never different.
func checkReadEvents(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadEvents(bytes.NewReader(data))
	for _, n := range []int{1, 7} {
		again, err2 := ReadEvents(&smallReads{bytes.NewReader(data), n})
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() || !reflect.DeepEqual(got, again) {
			t.Fatalf("%q: reading %d bytes at a time changes the result: %v / %v", data, n, err, err2)
		}
	}
	want, wantErr := referenceReadEvents(bytes.NewReader(data))
	if err != nil {
		if got != nil {
			t.Fatalf("%q: a stream returned beside the error %v", data, err)
		}
		if wantErr != nil {
			return
		}
		// Stricter than the reference: fine, unless the file is one the
		// writer produces.
		var rewritten bytes.Buffer
		if werr := WriteEvents(&rewritten, want.Topo, want.Events); werr == nil && bytes.Equal(rewritten.Bytes(), data) {
			t.Fatalf("%q: WriteEvents output refused: %v", data, err)
		}
		return
	}
	if wantErr != nil {
		t.Fatalf("%q: accepted, but the reference refuses it: %v", data, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: stream differs from the reference:\n got %+v\nwant %+v", data, got, want)
	}
}

// TestReadEventsAgainstReference runs the fuzz seeds in Tier-1, and pins
// which side of the grammar's edge some of them fall on.
func TestReadEventsAgainstReference(t *testing.T) {
	for _, seed := range readSeeds(t) {
		checkReadEvents(t, seed)
	}
	const hdr = `{"format":"surfer-trace-events","version":1,"events":[`
	for _, ok := range []string{
		" {\n\"version\" : 1 , \"format\":\"surfer-trace-events\",\t\"events\" : [ ] }\r\n",
		`{"note":{"deep":[1,2,{"x":null}]},"format":"surfer-trace-events","version":1,"events":[{"seq":0,"cause":-1,"unknown":{"kind":9}}],"after":1}`,
		hdr + `{"time":1E+2,"cause":-1,"seq":0,"job":null,"job":"\u0041"}]}`,
	} {
		if _, err := ReadEvents(strings.NewReader(ok)); err != nil {
			t.Errorf("%s: %v", ok, err)
		}
	}
	for bad, want := range map[string]string{
		hdr + `]}x`:                                    "invalid raw trace JSON",
		hdr + `{"Seq":0,"cause":-1}]}`:                 "invalid raw trace JSON",
		hdr + `{"seq":0,"cause":-1,"kind":256}]}`:      "invalid raw trace JSON",
		hdr + `{"seq":0,"cause":-1,"part":1.0}]}`:      "invalid raw trace JSON",
		hdr + `],"version":1}`:                         "invalid raw trace JSON",
		`{"format":"surfer-trace-events","version":1}`: "no event list",
		hdr + `{"seq":0,"cause":-1,"job":"x`:           "truncated",
		hdr + `{"seq":0,"cause":-1,"incast":tr`:        "truncated",
		`{"traceEvents":[1,2,3]}`:                      "not a raw event trace",
	} {
		if _, err := ReadEvents(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", bad, err, want)
		}
	}
}

// FuzzReadEvents is the differential: see checkReadEvents.
func FuzzReadEvents(f *testing.F) {
	for _, seed := range readSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkReadEvents(t, data) })
}

// countingWriter counts Write calls and fails from the failAt-th on.
type countingWriter struct {
	writes, bytes, failAt int
}

var errDiskFull = errors.New("disk full")

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failAt > 0 && w.writes >= w.failAt {
		return 0, errDiskFull
	}
	w.bytes += len(p)
	return len(p), nil
}

// manyEvents is a stream a few blocks long.
func manyEvents(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Kind: KindTransfer, Seq: i, Cause: i - 1, Job: "job", Stage: "stage", Name: "t-p12",
			Machine: i % 16, Dst: (i + 1) % 16, Part: i % 64, Bytes: 4096, Time: float64(i) / 7, Start: float64(i) / 3, End: float64(i)}
	}
	return events
}

// TestWriteEventsWritesBlocks: a capture handed a bare file costs a write per
// 64 KB block, not two per event.
func TestWriteEventsWritesBlocks(t *testing.T) {
	events := manyEvents(5000)
	topo := &TopoInfo{Name: "T1", Machines: 2, Bandwidth: [][]float64{{1, 2}, {3, 4}}}
	for _, ti := range []*TopoInfo{nil, topo} {
		var w countingWriter
		if err := WriteEvents(&w, ti, events); err != nil {
			t.Fatal(err)
		}
		if limit := (w.bytes+writeBlock-1)/writeBlock + 2; w.writes > limit {
			t.Errorf("%d writes for %d bytes, want at most %d", w.writes, w.bytes, limit)
		}
		if w.bytes < 4*writeBlock {
			t.Fatalf("only %d bytes written: the test no longer spans several blocks", w.bytes)
		}
	}
}

// TestWriteEventsReturnsWriterError: an error from any block's write comes
// back, the last block's included.
func TestWriteEventsReturnsWriterError(t *testing.T) {
	events := manyEvents(5000)
	var ok countingWriter
	if err := WriteEvents(&ok, nil, events); err != nil {
		t.Fatal(err)
	}
	for failAt := 1; failAt <= ok.writes; failAt++ {
		w := countingWriter{failAt: failAt}
		if err := WriteEvents(&w, nil, events); !errors.Is(err, errDiskFull) {
			t.Errorf("write %d of %d failed, WriteEvents returned %v", failAt, ok.writes, err)
		}
	}
}

// failingReader fails after its data, with an error that is not io.EOF.
type failingReader struct{ r io.Reader }

func (f failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = errDiskFull
	}
	return n, err
}

// TestReadEventsReturnsReaderError: a failing reader is reported as such, not
// as a truncated file.
func TestReadEventsReturnsReaderError(t *testing.T) {
	var file bytes.Buffer
	if err := WriteEvents(&file, nil, manyEvents(100)); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{file.Bytes(), file.Bytes()[:file.Len()/2], nil} {
		if _, err := ReadEvents(failingReader{bytes.NewReader(data)}); !errors.Is(err, errDiskFull) {
			t.Errorf("reader failed after %d bytes, ReadEvents returned %v", len(data), err)
		}
	}
}

// TestSniffFormat: the format is read off the head of the input in the one
// scan, so anything that has not named StreamFormat before it fails is
// ErrNotStream, and another format's body is refused without being read.
func TestSniffFormat(t *testing.T) {
	none := func(*Stream) error { return nil }
	skip := func(*Event) error { return nil }
	for _, in := range []string{
		`{"version":1,"topology":{"a":[1]},"format":"x","events":[]}`,
		`{"displayTimeUnit":"ms","traceEvents":[],"format":"x"}`,
		`{"events":[],"format":"x"}`,
		`{"format":7}`,
		`{"format":"x`,
		`["format"]`,
		``,
	} {
		if err := ScanEvents(strings.NewReader(in), none, skip); !errors.Is(err, ErrNotStream) {
			t.Errorf("%s: %v, want ErrNotStream", in, err)
		}
	}
	chrome, err := os.ReadFile(filepath.Join("testdata", "chrome_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	// And a Chrome export far larger than the reader's buffer.
	var big bytes.Buffer
	if err := WriteChrome(&big, manyEvents(5000)); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{chrome, big.Bytes()} {
		r := &countingReader{r: bytes.NewReader(data)}
		if err := ScanEvents(r, none, skip); !errors.Is(err, ErrNotStream) || !strings.Contains(err.Error(), "Chrome exports cannot be analyzed") {
			t.Errorf("Chrome export of %d bytes: %v", len(data), err)
		}
		if r.n > 128<<10 {
			t.Errorf("refusing a Chrome export read %d of %d bytes", r.n, len(data))
		}
	}
	if big.Len() < 1<<20 {
		t.Fatalf("the large Chrome export is only %d bytes", big.Len())
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
