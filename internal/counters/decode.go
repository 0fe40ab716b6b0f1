package counters

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file decodes the observation wire form {label, events, samples}
// and the corpus body {"observations": [...]} in one pass over the bytes,
// with no reflection. The accepted language and the decoded values are
// encoding/json's, which the package tests hold it to differentially:
//
//   - keys match a field exactly, else case-insensitively (bytes.EqualFold);
//     unknown keys are validated and skipped; a repeated key decodes again
//     into what the earlier one left, so the last one wins;
//   - null leaves a string or number as it was and clears a list;
//   - strings are unescaped as encoding/json does, with invalid UTF-8 and
//     unpaired surrogates replaced by U+FFFD;
//   - numbers follow the JSON grammar and convert with strconv.ParseFloat,
//     except that a digits-only literal below 2^53 converts exactly as
//     float64(n), which is bit-identical;
//   - nesting deeper than encoding/json's limit of 10000 is an error.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// errEOF reports input that ends inside a value.
var errEOF = errors.New("unexpected end of JSON input")

// DecodeObservation decodes data holding exactly one observation in its
// wire form, as json.Unmarshal does: anything but whitespace after the
// value is an error. The observation is validated as UnmarshalJSON
// documents.
func DecodeObservation(data []byte) (*Observation, error) {
	o := new(Observation)
	if err := decodeOne(data, true, o); err != nil {
		return nil, err
	}
	return o, nil
}

// DecodeObservationBody decodes the observation at the start of a request
// body, as json.Decoder.Decode does: bytes after the first JSON value are
// not examined.
func DecodeObservationBody(data []byte) (*Observation, error) {
	o := new(Observation)
	if err := decodeOne(data, false, o); err != nil {
		return nil, err
	}
	return o, nil
}

// DecodeCorpusBody decodes a corpus request body {"observations": [...]},
// as json.Decoder.Decode does into a struct with an []*Observation field:
// bytes after the first JSON value are not examined, a null body or a null
// list gives a nil corpus, and a null element a nil observation. Sample
// rows of one observation are windows of a single backing array, and
// consecutive observations whose events lists are byte-identical share
// one *Set.
func DecodeCorpusBody(data []byte) ([]*Observation, error) {
	d := getDecoder(data)
	defer putDecoder(d)
	d.ws()
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return nil, fmt.Errorf("counters: decode corpus: %w", err)
		}
		return nil, nil
	case '{':
	default:
		return nil, fmt.Errorf("counters: decode corpus: %w", d.mismatch("a corpus object"))
	}
	var corpus []*Observation
	empty, err := d.objectStart()
	for more := !empty; err == nil && more; more, err = d.objectNext(err) {
		var key []byte
		if key, err = d.objectKey(); err != nil {
			break
		}
		if matchKey(key, "observations") {
			corpus, err = d.observations()
		} else {
			err = d.skipValue()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("counters: decode corpus: %w", err)
	}
	return corpus, nil
}

// decodeOne decodes one observation at the start of data into o, leaving
// o untouched on error. strict rejects anything after the value.
func decodeOne(data []byte, strict bool, o *Observation) error {
	d := getDecoder(data)
	defer putDecoder(d)
	d.ws()
	var err error
	switch d.peek() {
	case '{':
		err = d.observation(o)
	case 'n':
		// encoding/json hands a top-level null to UnmarshalJSON, which
		// finds no events.
		if err = d.literal("null"); err == nil {
			err = errNoEvents("")
		}
	default:
		err = d.mismatch("an observation object")
	}
	if err == nil && strict {
		if d.ws(); d.pos < len(d.data) {
			err = d.syntax("after top-level value")
		}
	}
	switch err.(type) {
	case nil:
		return nil
	case validationError:
		return fmt.Errorf("counters: %w", err)
	}
	return fmt.Errorf("counters: decode observation: %w", err)
}

// validationError is an observation that decoded but breaks the
// invariants the typed API enforces by construction.
type validationError struct{ msg string }

func (e validationError) Error() string { return e.msg }

func invalid(format string, args ...any) error {
	return validationError{fmt.Sprintf(format, args...)}
}

func errNoEvents(label string) error { return invalid("observation %q has no events", label) }

// span is a value's extent in the input.
type span struct{ start, end int }

// decoder holds one body's input and the scratch its observations reuse.
// Decoders are pooled, so a steady stream of requests reuses the scratch.
type decoder struct {
	data  []byte
	pos   int
	depth int

	nums    []float64 // the current observation's sample values, row-major
	ends    []int     // the end of each of its rows in nums
	names   []byte    // the unescaped names of the events list being decoded
	marks   []span    // each name's extent in names; start -1 for null
	events  []span    // the current observation's events values, in order
	samples []span    // its samples values, in order
	key     []byte    // an unescaped key
	corpus  []*Observation

	// prevEvents is the previous observation's events value in this
	// body and prevSet the set it decoded to.
	prevEvents []byte
	prevSet    *Set
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// maxPooledFloats bounds the sample scratch a pooled decoder keeps, so
// one huge body does not pin its buffer for the life of the process.
const maxPooledFloats = 1 << 16

func getDecoder(data []byte) *decoder {
	d := decoders.Get().(*decoder)
	d.data, d.pos, d.depth = data, 0, 0
	return d
}

func putDecoder(d *decoder) {
	d.data, d.prevEvents, d.prevSet = nil, nil, nil
	clear(d.corpus)
	d.corpus = d.corpus[:0]
	if cap(d.nums) > maxPooledFloats {
		d.nums = nil
	}
	decoders.Put(d)
}

func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// syntax reports the byte at d.pos as invalid in the given context.
func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", rune(d.data[d.pos]), context, d.pos)
}

// mismatch reports a well-started value of the wrong JSON type. The value
// is not scanned further: encoding/json rejects the input either way.
func (d *decoder) mismatch(want string) error {
	if d.pos >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("cannot decode a value starting %q as %s (offset %d)", rune(d.data[d.pos]), want, d.pos)
}

func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) {
			return errEOF
		}
		if d.data[d.pos] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// open enters the object or array whose opening byte is at d.pos and
// reports whether it is empty (its closing byte then consumed too).
func (d *decoder) open(closing byte) (bool, error) {
	if d.depth++; d.depth > maxDepth {
		return false, errors.New("exceeded max depth")
	}
	d.pos++
	d.ws()
	if d.peek() == closing {
		d.pos++
		d.depth--
		return true, nil
	}
	return false, nil
}

func (d *decoder) objectStart() (bool, error) { return d.open('}') }
func (d *decoder) arrayStart() (bool, error)  { return d.open(']') }

// next consumes the separator after a member or element: true for a
// comma, false for the closing byte. A non-nil err, the member's or
// element's own, is returned as is, so a loop's post statement keeps it.
func (d *decoder) next(err error, closing byte, context string) (bool, error) {
	if err != nil {
		return false, err
	}
	d.ws()
	switch d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true, nil
	case closing:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.syntax(context)
}

func (d *decoder) objectNext(err error) (bool, error) {
	return d.next(err, '}', "after object key:value pair")
}

func (d *decoder) arrayNext(err error) (bool, error) {
	return d.next(err, ']', "after array element")
}

// objectKey reads a member's unescaped key and its colon, leaving d.pos
// at the value. The key is valid until the next string is read.
func (d *decoder) objectKey() ([]byte, error) {
	d.ws()
	if d.peek() != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	raw, plain, err := d.str()
	if err != nil {
		return nil, err
	}
	key := raw
	if !plain {
		d.key = appendUnquoted(d.key[:0], raw)
		key = d.key
	}
	d.ws()
	if d.peek() != ':' {
		return nil, d.syntax("after object key")
	}
	d.pos++
	d.ws()
	return key, nil
}

// matchKey is encoding/json's field match: exact, else case-folded.
func matchKey(key []byte, field string) bool {
	return string(key) == field || bytes.EqualFold(key, []byte(field))
}

// str scans the string literal at d.pos, returning its raw contents and
// whether they need no unescaping (no escapes, valid UTF-8).
func (d *decoder) str() (raw []byte, plain bool, err error) {
	d.pos++ // opening quote
	start := d.pos
	plain = true
	ascii := true
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			raw = d.data[start:d.pos]
			d.pos++
			if !ascii && plain {
				plain = utf8.Valid(raw)
			}
			return raw, plain, nil
		case c == '\\':
			plain = false
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if !isHex(d.peek()) {
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, false, d.syntax("in string escape code")
			}
		case c < ' ':
			return nil, false, d.syntax("in string literal")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			d.pos++
		}
	}
	return nil, false, errEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// appendUnquoted appends the unescaped form of a scanned string's raw
// contents, as encoding/json's unquote does: escapes decoded, surrogate
// pairs joined, and invalid UTF-8 and unpaired surrogates replaced by
// U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					dec := unicode.ReplacementChar
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						dec = utf16.DecodeRune(rr, hex4(s[r+2:]))
					}
					if rr = dec; dec != unicode.ReplacementChar {
						r += 6
					}
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// hex4 reads the four hex digits at the start of s (already validated).
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// scanNumber scans the number literal at d.pos by the JSON grammar. small
// reports a digits-only literal below 2^53, whose magnitude is n.
func (d *decoder) scanNumber() (n uint64, small bool, err error) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	start := i
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		// n wraps past 19 digits; it is only used for 16 or fewer.
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			n = n*10 + uint64(c)
		}
		if i == start {
			d.pos = i
			return 0, false, d.syntax("in numeric literal")
		}
	}
	small = i-start <= 16 && n < 1<<53
	d.pos = i
	if d.peek() == '.' {
		small = false
		d.pos++
		if err := d.digits("after decimal point in numeric literal"); err != nil {
			return 0, false, err
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		small = false
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if err := d.digits("in exponent of numeric literal"); err != nil {
			return 0, false, err
		}
	}
	return n, small, nil
}

// digits consumes one or more decimal digits.
func (d *decoder) digits(context string) error {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	if d.pos == start {
		return d.syntax(context)
	}
	return nil
}

// number reads the number literal at d.pos as a float64: exactly as
// float64(n) for a digits-only literal below 2^53 (negated, so -0 stays
// -0), through strconv.ParseFloat like encoding/json otherwise.
func (d *decoder) number() (float64, error) {
	start := d.pos
	n, small, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if small {
		f := float64(n)
		if d.data[start] == '-' {
			f = -f
		}
		return f, nil
	}
	lit := d.data[start:d.pos]
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("cannot decode number %s as a float64 (offset %d)", lit, start)
	}
	return f, nil
}

// skipValue validates and skips any JSON value.
func (d *decoder) skipValue() error {
	switch c := d.peek(); {
	case c == '{':
		empty, err := d.objectStart()
		for more := !empty; err == nil && more; more, err = d.objectNext(err) {
			if _, err = d.objectKey(); err == nil {
				err = d.skipValue()
			}
		}
		return err
	case c == '[':
		empty, err := d.arrayStart()
		for more := !empty; err == nil && more; more, err = d.arrayNext(err) {
			err = d.skipValue()
		}
		return err
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.scanNumber()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax("looking for beginning of value")
}

// observations decodes the corpus list at d.pos. Each element is decoded
// afresh, so a repeated "observations" key leaves the last list, as
// encoding/json's in-place decoding also does.
func (d *decoder) observations() ([]*Observation, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.mismatch("an observation list")
	}
	d.corpus = d.corpus[:0]
	d.prevEvents, d.prevSet = nil, nil
	empty, err := d.arrayStart()
	for more := !empty; err == nil && more; more, err = d.arrayNext(err) {
		switch d.peek() {
		case 'n':
			err = d.literal("null")
			d.corpus = append(d.corpus, nil)
		case '{':
			o := new(Observation)
			if err = d.observation(o); err == nil {
				d.corpus = append(d.corpus, o)
			}
		default:
			// encoding/json hands any other value to UnmarshalJSON,
			// which cannot decode it.
			err = d.mismatch("an observation object")
		}
	}
	if err != nil {
		return nil, err
	}
	return append([]*Observation{}, d.corpus...), nil
}

// observation decodes the observation object at d.pos into o and
// validates it; o is untouched on error.
//
// The common shape, each field once, decodes its samples straight into
// the decoder's scratch. A repeated events or samples key is replayed at
// the end with encoding/json's in-place list semantics, under which a
// later list decodes over the backing array the earlier one left.
func (d *decoder) observation(o *Observation) error {
	var label string
	d.events, d.samples = d.events[:0], d.samples[:0]
	d.nums, d.ends = d.nums[:0], d.ends[:0]
	var first samplesForm
	empty, err := d.objectStart()
	for more := !empty; err == nil && more; more, err = d.objectNext(err) {
		var key []byte
		if key, err = d.objectKey(); err != nil {
			break
		}
		start := d.pos
		switch {
		case matchKey(key, "label"):
			switch d.peek() {
			case 'n':
				err = d.literal("null")
			case '"':
				var raw []byte
				var plain bool
				if raw, plain, err = d.str(); err == nil {
					if plain {
						label = string(raw)
					} else {
						d.key = appendUnquoted(d.key[:0], raw)
						label = string(d.key)
					}
				}
			default:
				err = d.mismatch("a label string")
			}
		case matchKey(key, "events"):
			if err = d.skipValue(); err == nil {
				d.events = append(d.events, span{start, d.pos})
			}
		case matchKey(key, "samples"):
			if len(d.samples) == 0 {
				first, err = d.firstSamples()
			} else {
				err = d.skipValue()
			}
			if err == nil {
				d.samples = append(d.samples, span{start, d.pos})
			}
		default:
			err = d.skipValue()
		}
	}
	if err != nil {
		return err
	}
	end := d.pos

	set, err := d.eventSet(label)
	if err != nil {
		return err
	}
	var samples [][]float64
	if len(d.samples) > 1 {
		samples, err = d.replaySamples()
	} else {
		samples = d.flatSamples(first)
	}
	d.pos = end
	if err != nil {
		return err
	}
	for i, row := range samples {
		if len(row) != set.Len() {
			return invalid("observation %q sample %d has %d values, want %d", label, i, len(row), set.Len())
		}
	}
	o.Label, o.Set, o.Samples = label, set, samples
	return nil
}

// eventSet decodes and validates the current observation's events. A
// single events value byte-identical to the previous observation's
// reuses its set.
func (d *decoder) eventSet(label string) (*Set, error) {
	single := len(d.events) == 1
	if single && d.prevSet != nil && bytes.Equal(d.data[d.events[0].start:d.events[0].end], d.prevEvents) {
		return d.prevSet, nil
	}
	var events []Event
	for _, sp := range d.events {
		d.pos = sp.start
		var err error
		if events, err = d.eventList(events, single); err != nil {
			return nil, err
		}
	}
	if len(events) == 0 {
		return nil, errNoEvents(label)
	}
	for _, e := range events {
		if e == "" {
			return nil, invalid("observation %q has an empty event name", label)
		}
	}
	set := NewSet(events...)
	if set.Len() != len(events) {
		return nil, invalid("observation %q has duplicate events", label)
	}
	if single {
		d.prevEvents, d.prevSet = d.data[d.events[0].start:d.events[0].end], set
	}
	return set, nil
}

// eventList decodes the events value at d.pos into dst in place, as
// encoding/json decodes a list into a slice: elements overwrite dst's
// backing array (a null element keeps what was there), the slice is cut
// to the list's length, [] gives an empty slice and null a nil one. All
// names share one string. fresh sizes a first decode exactly.
func (d *decoder) eventList(dst []Event, fresh bool) ([]Event, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.mismatch("an events list")
	}
	d.names, d.marks = d.names[:0], d.marks[:0]
	empty, err := d.arrayStart()
	if empty {
		return []Event{}, nil
	}
	for more := true; err == nil && more; more, err = d.arrayNext(err) {
		switch d.peek() {
		case 'n':
			err = d.literal("null")
			d.marks = append(d.marks, span{-1, -1})
		case '"':
			var raw []byte
			if raw, _, err = d.str(); err == nil {
				start := len(d.names)
				d.names = appendUnquoted(d.names, raw)
				d.marks = append(d.marks, span{start, len(d.names)})
			}
		default:
			err = d.mismatch("an event name")
		}
	}
	if err != nil {
		return nil, err
	}
	if fresh {
		dst = make([]Event, 0, len(d.marks))
	}
	all := string(d.names)
	for i, m := range d.marks {
		dst = growTo(dst, i)
		if m.start >= 0 {
			dst[i] = Event(all[m.start:m.end])
		}
	}
	return dst[:len(d.marks)], nil
}

// growTo makes index i of s addressable as encoding/json's slice decoding
// does: within capacity the slice is resliced, exposing what the backing
// array holds; past it the slice grows as append grows it.
func growTo[T any](s []T, i int) []T {
	if i < cap(s) {
		if i >= len(s) {
			s = s[:i+1]
		}
		return s
	}
	var zero T
	return append(s, zero)
}

// samplesForm is what the first samples value was.
type samplesForm int

const (
	samplesAbsent samplesForm = iota // no samples key, or null
	samplesEmpty                     // []
	samplesRows                      // rows in d.nums and d.ends
)

// firstSamples decodes the first samples value at d.pos into d.nums and
// d.ends. A null row decodes as an empty one (the width check rejects
// both) and a null value as 0, the zero a fresh row holds.
func (d *decoder) firstSamples() (samplesForm, error) {
	switch d.peek() {
	case 'n':
		return samplesAbsent, d.literal("null")
	case '[':
	default:
		return samplesAbsent, d.mismatch("a sample matrix")
	}
	empty, err := d.arrayStart()
	if empty {
		return samplesEmpty, nil
	}
	for more := true; err == nil && more; more, err = d.arrayNext(err) {
		switch d.peek() {
		case 'n':
			err = d.literal("null")
		case '[':
			var rowEmpty bool
			rowEmpty, err = d.arrayStart()
			for rowMore := !rowEmpty; err == nil && rowMore; rowMore, err = d.arrayNext(err) {
				var v float64
				if v, err = d.sample(); err == nil {
					d.nums = append(d.nums, v)
				}
			}
		default:
			err = d.mismatch("a sample row")
		}
		d.ends = append(d.ends, len(d.nums))
	}
	return samplesRows, err
}

// sample reads one sample value: a number, or null for 0.
func (d *decoder) sample() (float64, error) {
	switch c := d.peek(); {
	case c == 'n':
		return 0, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return 0, d.mismatch("a sample value")
}

// flatSamples builds the first samples value's rows as capacity-limited
// windows of one array, so an append to one row cannot overwrite the
// next.
func (d *decoder) flatSamples(form samplesForm) [][]float64 {
	switch form {
	case samplesAbsent:
		return nil
	case samplesEmpty:
		return [][]float64{}
	}
	flat := make([]float64, len(d.nums))
	copy(flat, d.nums)
	rows := make([][]float64, len(d.ends))
	start := 0
	for i, end := range d.ends {
		rows[i] = flat[start:end:end]
		start = end
	}
	return rows
}

// replaySamples decodes every samples value of the current observation in
// order, each in place over what the previous one left, with
// encoding/json's list semantics (see eventList). A null row clears it; a
// null value keeps the one beneath it.
func (d *decoder) replaySamples() ([][]float64, error) {
	var s [][]float64
	for _, sp := range d.samples {
		d.pos = sp.start
		switch d.peek() {
		case 'n':
			s = nil
			d.pos = sp.end
			continue
		case '[':
		default:
			return nil, d.mismatch("a sample matrix")
		}
		empty, err := d.arrayStart()
		if empty {
			s = [][]float64{}
			continue
		}
		i := 0
		for more := true; err == nil && more; more, err = d.arrayNext(err) {
			s = growTo(s, i)
			switch d.peek() {
			case 'n':
				s[i] = nil
				err = d.literal("null")
			case '[':
				s[i], err = d.replayRow(s[i])
			default:
				err = d.mismatch("a sample row")
			}
			i++
		}
		if err != nil {
			return nil, err
		}
		s = s[:i]
	}
	return s, nil
}

// replayRow decodes the row at d.pos in place over r.
func (d *decoder) replayRow(r []float64) ([]float64, error) {
	empty, err := d.arrayStart()
	if empty {
		return []float64{}, nil
	}
	j := 0
	for more := true; err == nil && more; more, err = d.arrayNext(err) {
		r = growTo(r, j)
		if d.peek() == 'n' {
			err = d.literal("null")
		} else {
			r[j], err = d.sample()
		}
		j++
	}
	return r[:j], err
}
