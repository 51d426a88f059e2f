package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// decoder tokenises raw trace JSON straight from a reader: no copy of the
// file, no reflection, one Event reused for every element of the event list.
// Where it differs from encoding/json it is stricter, never different (see
// FuzzReadEvents): keys must match exactly, an event field holds its own
// JSON type or null, and the envelope keys come before the events.
type decoder struct {
	r    io.Reader
	buf  []byte
	pos  int   // buf[pos:end] is unread
	end  int   //
	hold int   // when >= 0, buf[hold:pos] is kept in the buffer too
	base int64 // offset in the input of buf[0]
	eof  bool
	rerr error // the reader's error, when it was not io.EOF

	// names interns the Job/Stage/Tenant/Name values, so a stream allocates
	// each distinct string once; last holds the previous value per field,
	// which is the next one more often than not.
	names   map[string]string
	last    [keyName + 1]string
	scratch []byte // decoded form of the string in hand
}

// maxInterned bounds the intern table: past it a new name is allocated per
// occurrence, as every name was before the table existed.
const maxInterned = 1 << 16

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: r, buf: make([]byte, 64<<10), hold: -1, names: make(map[string]string)}
}

// more reads further input behind the unread (and held) bytes, first moving
// them to the front of the buffer (which doubles when they fill it). It
// reports false once the input has ended or failed.
func (d *decoder) more() bool {
	if d.eof {
		return false
	}
	keep := d.pos
	if d.hold >= 0 {
		keep, d.hold = d.hold, 0
	}
	if keep > 0 {
		d.end = copy(d.buf, d.buf[keep:d.end])
		d.base += int64(keep)
		d.pos -= keep
	}
	if d.end == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	for {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.eof = true
			if err != io.EOF {
				d.rerr = err
			}
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// errShort reports that the input ended (or the reader failed) inside the
// JSON value; classify turns it into the truncation or the read error.
var errShort = errors.New("unexpected end of JSON input")

// syntaxError is a grammar or field-type violation at a byte offset.
type syntaxError struct {
	off int64
	msg string
}

func (e *syntaxError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

// classify names the damage: a cut-off file is reported as truncated, not
// as a grammar error at its last byte; anything else the grammar refuses is
// invalid raw trace JSON; envelope and callback errors pass through.
func (d *decoder) classify(err error) error {
	var syn *syntaxError
	switch {
	case err == errShort && d.rerr != nil:
		return d.rerr
	case err == errShort:
		return fmt.Errorf("trace: raw trace file is truncated after %d bytes (the capture was interrupted or the copy is partial): %w", d.base+int64(d.end), err)
	case errors.As(err, &syn):
		return fmt.Errorf("trace: invalid raw trace JSON: %w", err)
	}
	return err
}

func (d *decoder) errorf(format string, args ...any) error {
	return &syntaxError{off: d.base + int64(d.pos), msg: fmt.Sprintf(format, args...)}
}

// peek skips JSON whitespace and returns the next byte without consuming it.
func (d *decoder) peek() (byte, error) {
	if d.pos < d.end && d.buf[d.pos] > ' ' {
		return d.buf[d.pos], nil // nothing to skip: the writer's own files, mostly
	}
	return d.skipSpace()
}

func (d *decoder) skipSpace() (byte, error) {
	for {
		for d.pos < d.end {
			switch c := d.buf[d.pos]; c {
			case ' ', '\n', '\t', '\r':
				d.pos++
			default:
				return c, nil
			}
		}
		if !d.more() {
			return 0, errShort
		}
	}
}

// expect consumes the next non-space byte, which must be want.
func (d *decoder) expect(want byte) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != want {
		return d.errorf("invalid character %q, want %q", c, want)
	}
	d.pos++
	return nil
}

// open consumes the opener of an object or array and reports whether it is
// empty, its closer (consumed as well) following at once.
func (d *decoder) open(opener byte) (empty bool, err error) {
	if err := d.expect(opener); err != nil {
		return false, err
	}
	c, err := d.peek()
	if err != nil || c != opener+2 { // '}' and ']' follow their openers by two
		return false, err
	}
	d.pos++
	return true, nil
}

// literal consumes the keyword lit (true, false, null).
func (d *decoder) literal(lit string) error {
	for d.end-d.pos < len(lit) && d.more() {
	}
	have := d.buf[d.pos:min(d.end, d.pos+len(lit))]
	switch {
	case string(have) == lit:
		d.pos += len(lit)
		return nil
	case string(have) == lit[:len(have)]:
		return errShort
	}
	return d.errorf("invalid literal, want %s", lit)
}

// str consumes a string literal and returns the bytes between its quotes,
// a view of the buffer valid until the next read. plain reports that they
// are the string itself: ASCII with no escape. Control bytes are refused
// here, bad escapes by text.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	if err := d.expect('"'); err != nil {
		return nil, false, err
	}
	plain = true
	for i := 0; ; {
		b := d.buf[d.pos:d.end]
	scan:
		for i < len(b) {
			switch c := b[i]; {
			case c == '"':
				d.pos += i + 1
				return b[:i], plain, nil
			case c == '\\':
				if i+1 == len(b) {
					break scan // the escaped byte is still to be read
				}
				plain = false
				i++ // it cannot end the literal
			case c < ' ':
				d.pos += i
				return nil, false, d.errorf("invalid control character %q in string literal", c)
			case c >= utf8.RuneSelf:
				plain = false
			}
			i++
		}
		if !d.more() {
			return nil, false, errShort
		}
	}
}

// key consumes an object key. Keys are matched as they are spelled, so one
// that would need unquoting is refused rather than skipped as unknown. The
// view is valid until the next read: identify the key before going on.
func (d *decoder) key() ([]byte, error) {
	raw, plain, err := d.str()
	if err == nil && !plain {
		err = d.errorf("key %q is not plain ASCII", raw)
	}
	return raw, err
}

// text consumes a string literal and returns its value. One that is not
// plain is decoded by encoding/json itself from a copy of its quoted bytes
// in scratch: after a refill the opening quote is no longer in the buffer.
func (d *decoder) text() ([]byte, error) {
	raw, plain, err := d.str()
	if err != nil || plain {
		return raw, err
	}
	d.scratch = append(append(append(d.scratch[:0], '"'), raw...), '"')
	var v string
	if err := json.Unmarshal(d.scratch, &v); err != nil {
		return nil, d.errorf("%v", err)
	}
	d.scratch = append(d.scratch[:0], v...)
	return d.scratch, nil
}

// number consumes the run of number characters ahead and returns it, a view
// of the buffer valid until the next read. The run is not yet known to be a
// JSON number.
func (d *decoder) number() ([]byte, error) {
	if _, err := d.peek(); err != nil {
		return nil, err
	}
	i := 0
	for {
		b := d.buf[d.pos:d.end]
		for i < len(b) {
			if c := b[i]; (c < '0' || c > '9') && c != '-' && c != '.' && c != 'e' && c != 'E' && c != '+' {
				break
			}
			i++
		}
		if i < len(b) || !d.more() {
			break
		}
	}
	lit := d.buf[d.pos : d.pos+i]
	d.pos += i
	return lit, nil
}

// integer consumes a number that must be a plain integer literal,
// -?(0|[1-9][0-9]*), in 64 bits: what encoding/json accepts into an integer
// field.
func (d *decoder) integer(field string) (int64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	digits := lit
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 1 && digits[0] == '0' {
		return 0, d.errorf("%s wants an integer, has %q", field, lit)
	}
	var v uint64
	for _, c := range digits {
		if c < '0' || c > '9' || v > (1<<63)/10 {
			return 0, d.errorf("%s wants an integer in 64 bits, has %q", field, lit)
		}
		v = v*10 + uint64(c-'0')
	}
	neg := len(digits) < len(lit)
	if v > 1<<63 || v == 1<<63 && !neg {
		return 0, d.errorf("%s value %s overflows", field, lit)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// intField consumes an integer that must fit the platform's int.
func (d *decoder) intField(field string, dst *int) error {
	v, err := d.integer(field)
	if err == nil && int64(int(v)) != v {
		err = d.errorf("%s value %d overflows", field, v)
	}
	*dst = int(v)
	return err
}

// float consumes a JSON number into a float64; one beyond its range is an
// error, as it is for encoding/json.
func (d *decoder) float(field string) (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	if !validNumber(lit) {
		return 0, d.errorf("%s wants a number, has %q", field, lit)
	}
	// strconv's parsers do not retain their argument, so a literal of
	// ordinary length converts on the stack.
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, d.errorf("%s value %s is out of range", field, lit)
	}
	return f, nil
}

// validNumber reports whether lit is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(lit []byte) bool {
	i := 0
	digits := func() bool {
		start := i
		for i < len(lit) && '0' <= lit[i] && lit[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(lit) && lit[i] == '-' {
		i++
	}
	if i < len(lit) && lit[i] == '0' {
		i++
	} else if !digits() {
		return false
	}
	if i < len(lit) && lit[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(lit) && (lit[i] == 'e' || lit[i] == 'E') {
		i++
		if i < len(lit) && (lit[i] == '+' || lit[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(lit)
}

// boolean consumes true or false.
func (d *decoder) boolean(c byte) (bool, error) {
	if c == 't' {
		return true, d.literal("true")
	}
	return false, d.literal("false")
}

// maxDepth bounds how deep a skipped value may nest, counted from the
// top-level object as encoding/json counts it; envelopeDepth and eventDepth
// are where the values of the envelope and of an event sit.
const (
	maxDepth      = 10000
	envelopeDepth = 1
	eventDepth    = 3
)

// skipValue consumes one JSON value of any shape, depth containers down,
// checking its grammar.
func (d *decoder) skipValue(depth int) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		_, err := d.text()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '{', '[':
		if depth == maxDepth {
			return d.errorf("value nested deeper than %d", maxDepth)
		}
		if empty, err := d.open(c); empty || err != nil {
			return err
		}
		for {
			if c == '{' {
				if _, err := d.text(); err != nil {
					return err
				}
				if err := d.expect(':'); err != nil {
					return err
				}
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			if done, err := d.next(c + 2); done || err != nil {
				return err
			}
		}
	}
	lit, err := d.number()
	if err == nil && !validNumber(lit) {
		err = d.errorf("invalid character %q looking for a value", c)
	}
	return err
}

// next consumes the separator behind an element: a comma (more follow) or
// closer (done).
func (d *decoder) next(closer byte) (done bool, err error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c != ',' && c != closer {
		return false, d.errorf("invalid character %q, want ',' or %q", c, closer)
	}
	d.pos++
	return c == closer, nil
}

// name consumes a string into *dst, allocating only the first time a value
// is seen. id is the field's key: last is kept per field.
func (d *decoder) name(id keyID, dst *string) error {
	b, err := d.text()
	if err != nil {
		return err
	}
	if string(b) != d.last[id] {
		s, ok := d.names[string(b)]
		if !ok {
			s = string(b)
			if len(d.names) < maxInterned {
				d.names[s] = s
			}
		}
		d.last[id] = s
	}
	*dst = d.last[id]
	return nil
}

// keyID identifies a key the decoder knows: resolved from the key's bytes
// at once, because the view of them does not outlive the next read.
type keyID uint8

const (
	keyUnknown keyID = iota
	keyKind
	keySeq
	keyCause
	keyJob
	keyStage
	keyTenant
	keyName
	keyMachine
	keyDst
	keyPart
	keyBytes
	keyTime
	keyStart
	keyEnd
	keyStall
	keyIncast
	keyAttempt
	keyDegraded
	keyFormat
	keyVersion
	keyTopology
	keyEvents
)

// eventKey identifies a key of an event object.
func eventKey(key []byte) keyID {
	switch string(key) {
	case "kind":
		return keyKind
	case "seq":
		return keySeq
	case "cause":
		return keyCause
	case "job":
		return keyJob
	case "stage":
		return keyStage
	case "tenant":
		return keyTenant
	case "name":
		return keyName
	case "machine":
		return keyMachine
	case "dst":
		return keyDst
	case "part":
		return keyPart
	case "bytes":
		return keyBytes
	case "time":
		return keyTime
	case "start":
		return keyStart
	case "end":
		return keyEnd
	case "stall":
		return keyStall
	case "incast":
		return keyIncast
	case "attempt":
		return keyAttempt
	case "degraded":
		return keyDegraded
	}
	return keyUnknown
}

// envelopeKey identifies a key of the top-level object.
func envelopeKey(key []byte) keyID {
	switch string(key) {
	case "format":
		return keyFormat
	case "version":
		return keyVersion
	case "topology":
		return keyTopology
	case "events":
		return keyEvents
	}
	return keyUnknown
}

// knownKey consumes a key and its colon and identifies the key with lookup.
// An unknown key is the caller's to skip — unless it differs from a known
// one only in case, which encoding/json would have matched: that is refused,
// so that no field is ever silently dropped.
func (d *decoder) knownKey(lookup func([]byte) keyID) (keyID, error) {
	key, err := d.key()
	if err != nil {
		return keyUnknown, err
	}
	id := lookup(key)
	if id == keyUnknown {
		low := append(d.scratch[:0], key...)
		for i, c := range low {
			if 'A' <= c && c <= 'Z' {
				low[i] = c + 'a' - 'A'
			}
		}
		d.scratch = low
		if lookup(low) != keyUnknown {
			return keyUnknown, d.errorf("key %q must be spelled %q", key, low)
		}
	}
	return id, d.expect(':')
}

// event decodes the object ahead into ev, overwriting all of it.
func (d *decoder) event(ev *Event) error {
	*ev = Event{}
	if empty, err := d.open('{'); empty || err != nil {
		return err
	}
	for {
		id, err := d.knownKey(eventKey)
		if err != nil {
			return err
		}
		c, err := d.peek()
		if err != nil {
			return err
		}
		switch {
		case id == keyUnknown:
			err = d.skipValue(eventDepth)
		case c == 'n':
			// encoding/json leaves a field as it is on null.
			err = d.literal("null")
		default:
			err = d.field(ev, id, c)
		}
		if err != nil {
			return err
		}
		if done, err := d.next('}'); done || err != nil {
			return err
		}
	}
}

// field decodes the value (first byte c) of the event key id.
func (d *decoder) field(ev *Event, id keyID, c byte) (err error) {
	switch id {
	case keyKind:
		var v int64
		if v, err = d.integer("kind"); err == nil && (c == '-' || v > 255) {
			err = d.errorf("kind value %d is not in 0..255", v)
		}
		ev.Kind = EventKind(v)
	case keySeq:
		err = d.intField("seq", &ev.Seq)
	case keyCause:
		err = d.intField("cause", &ev.Cause)
	case keyMachine:
		err = d.intField("machine", &ev.Machine)
	case keyDst:
		err = d.intField("dst", &ev.Dst)
	case keyPart:
		err = d.intField("part", &ev.Part)
	case keyAttempt:
		err = d.intField("attempt", &ev.Attempt)
	case keyBytes:
		ev.Bytes, err = d.integer("bytes")
	case keyTime:
		ev.Time, err = d.float("time")
	case keyStart:
		ev.Start, err = d.float("start")
	case keyEnd:
		ev.End, err = d.float("end")
	case keyStall:
		ev.Stall, err = d.float("stall")
	case keyIncast:
		ev.Incast, err = d.boolean(c)
	case keyDegraded:
		ev.Degraded, err = d.boolean(c)
	case keyJob:
		err = d.name(id, &ev.Job)
	case keyStage:
		err = d.name(id, &ev.Stage)
	case keyTenant:
		err = d.name(id, &ev.Tenant)
	case keyName:
		err = d.name(id, &ev.Name)
	}
	return err
}

// stream decodes the envelope, hands it to header once it is complete, and
// then every event to fn. Until the envelope has named StreamFormat the
// input may be any JSON — the Chrome export, say — so every refusal but the
// reader's own error is then ErrNotStream.
func (d *decoder) stream(header func(*Stream) error, fn func(*Event) error) error {
	s := &Stream{}
	err := d.envelope(s, header, fn)
	if err != nil && s.Format != StreamFormat && d.rerr == nil {
		return checkHeader(s)
	}
	return err
}

// envelope decodes the top-level object into s. Before s names StreamFormat
// an array under an unknown key stops the read: it is another format's
// body, which is refused unread.
func (d *decoder) envelope(s *Stream, header func(*Stream) error, fn func(*Event) error) error {
	handed := false
	done, err := d.open('{')
	for !done && err == nil {
		var id keyID
		if id, err = d.knownKey(envelopeKey); err != nil {
			break
		}
		var c byte
		if c, err = d.peek(); err != nil {
			break
		}
		switch {
		case id == keyUnknown && c == '[' && s.Format != StreamFormat:
			err = checkHeader(s)
		case id == keyUnknown:
			err = d.skipValue(envelopeDepth)
		case handed:
			err = d.errorf("envelope key after the event list (format, version and topology come first, events once)")
		case id == keyEvents:
			if err = checkHeader(s); err == nil {
				err = header(s)
			}
			if handed = true; err == nil {
				err = d.events(fn)
			}
		case c == 'n':
			if id == keyTopology {
				s.Topo = nil
			}
			err = d.literal("null")
		case id == keyFormat:
			var b []byte
			if b, err = d.text(); err == nil {
				s.Format = string(b)
			}
		case id == keyVersion:
			err = d.intField("version", &s.Version)
		case id == keyTopology:
			err = d.topology(&s.Topo)
		}
		if err == nil {
			done, err = d.next('}')
		}
	}
	if err != nil {
		return err
	}
	if c, err := d.peek(); err == nil {
		return d.errorf("invalid character %q after the top-level value", c)
	} else if d.rerr != nil {
		return err
	}
	if !handed {
		if err := checkHeader(s); err != nil {
			return err
		}
		return d.errorf("no event list")
	}
	return nil
}

// events decodes the event list, checking each element's place in it.
func (d *decoder) events(fn func(*Event) error) error {
	if empty, err := d.open('['); empty || err != nil {
		return err
	}
	var ev Event
	for i := 0; ; i++ {
		if err := d.event(&ev); err != nil {
			return err
		}
		if ev.Seq != i {
			return fmt.Errorf("trace: event %d carries seq %d; stream is reordered or truncated", i, ev.Seq)
		}
		if ev.Cause < None || ev.Cause >= ev.Seq {
			return fmt.Errorf("trace: event %d has acausal cause %d", i, ev.Cause)
		}
		if err := fn(&ev); err != nil {
			return err
		}
		if done, err := d.next(']'); done || err != nil {
			return err
		}
	}
}

// topology decodes the topology header with encoding/json: it comes once
// per file, and nesting is what that package is for. The value's bytes are
// held in the buffer while they are skipped.
func (d *decoder) topology(dst **TopoInfo) error {
	d.hold = d.pos
	err := d.skipValue(envelopeDepth)
	raw := d.buf[d.hold:d.pos]
	d.hold = -1
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return d.errorf("topology: %v", err)
	}
	return nil
}
