package httpapi

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// decodeInferJSON decodes a JSON infer body, an api.InferRequest, in one
// pass over the bytes and without reflection. It accepts and rejects
// exactly what json.NewDecoder(r).Decode(&api.InferRequest{}) does, and
// yields the same values bit for bit:
//   - only the first JSON value counts; bytes after it are not read;
//   - a top-level null leaves Input nil, any other non-object is an error;
//   - keys match "input" under encoding/json's case folding, escapes
//     included; other keys' values are checked for syntax and skipped;
//   - a repeated "input" decodes into the slice the previous one left, as
//     the reflective decoder does: the last one wins, and its null elements
//     keep what that slice held at their index (0 past its end);
//   - a number parses with strconv.ParseFloat(s, 32), the call
//     encoding/json makes; out of float32 range is an error.
func decodeInferJSON(body []byte) ([]float32, error) {
	d := jsonDecoder{b: body}
	d.space()
	switch d.peek() {
	case '{':
		err := d.members(func(key []byte) error {
			if isInputKey(key) {
				return d.inputValue()
			}
			return d.value()
		})
		if err != nil {
			return nil, err
		}
		return d.input, nil
	case 'n':
		return nil, d.literal("null")
	}
	return nil, d.errAt("an object") // any other value, valid or not, is an error
}

// maxJSONDepth is encoding/json's nesting limit for arrays and objects.
const maxJSONDepth = 10000

type jsonDecoder struct {
	b     []byte
	i     int
	depth int
	input []float32
	sized bool // the one length guess is spent
}

// peek returns the next byte, or 0 at the end of the body. No byte a
// caller compares it against is 0, so the end never passes for one.
func (d *jsonDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// space skips JSON whitespace.
func (d *jsonDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// errAt reports that the byte at the current offset, or the end of the
// body, is not the wanted one.
func (d *jsonDecoder) errAt(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input, looking for %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, looking for %s", d.b[d.i], d.i, want)
}

// open enters the array or object at d.i, enforcing the nesting limit.
func (d *jsonDecoder) open() error {
	if d.depth++; d.depth > maxJSONDepth {
		return fmt.Errorf("nesting deeper than %d at offset %d", maxJSONDepth, d.i)
	}
	d.i++
	return nil
}

// members walks the object at d.i, handing each raw key (escapes in
// place) to member with d at the start of its value.
func (d *jsonDecoder) members(member func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	d.space()
	if d.peek() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		d.space()
		if d.peek() != '"' {
			return d.errAt("an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.errAt("':' after an object key")
		}
		d.i++
		d.space()
		if err := member(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.errAt("',' or '}' after an object value")
		}
	}
}

// elements walks the array at d.i, calling elem with the index of each
// element and d at its start, and returns how many there were.
func (d *jsonDecoder) elements(elem func(n int) error) (int, error) {
	if err := d.open(); err != nil {
		return 0, err
	}
	d.space()
	if d.peek() == ']' {
		d.i++
		d.depth--
		return 0, nil
	}
	for n := 0; ; n++ {
		d.space()
		if err := elem(n); err != nil {
			return n, err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			d.depth--
			return n + 1, nil
		default:
			return n, d.errAt("',' or ']' after an array element")
		}
	}
}

// inputValue decodes the value of an "input" key: an array of numbers and
// nulls, or null.
func (d *jsonDecoder) inputValue() error {
	switch d.peek() {
	case '[':
	case 'n':
		d.input = nil
		return d.literal("null")
	default:
		return d.errAt(`an array for "input"`)
	}
	in := d.input
	if in == nil && !d.sized {
		// One guess at the length per body, one value per 8 bytes left: a
		// fresh backing is zero past its length, as a grown one would be.
		// Later arrays grow by append, so a body of repeated
		// "input":null,"input":[ costs work linear in its length.
		d.sized = true
		in = make([]float32, 0, (len(d.b)-d.i)/8)
	}
	n, err := d.elements(func(n int) error {
		// Grow as reflect.Value.Grow does: keep what lies past the length.
		if n < cap(in) {
			in = in[:max(len(in), n+1)]
		} else {
			in = append(in, 0)
		}
		switch c := d.peek(); {
		case c == 'n':
			return d.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			end, ok := numberEnd(d.b, d.i)
			if !ok {
				d.i = end
				return d.errAt("a digit")
			}
			f, err := strconv.ParseFloat(string(d.b[d.i:end]), 32)
			d.i = end
			if err != nil {
				return fmt.Errorf("input[%d]: %w", n, err)
			}
			in[n] = float32(f)
			return nil
		}
		return d.errAt(fmt.Sprintf("a number or null for input[%d]", n))
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		d.input = []float32{}
	default:
		d.input = in[:n]
	}
	return nil
}

// value checks the syntax of any JSON value starting at d.i and skips it.
func (d *jsonDecoder) value() error {
	switch c := d.peek(); {
	case c == '{':
		return d.members(func([]byte) error { return d.value() })
	case c == '[':
		_, err := d.elements(func(int) error { return d.value() })
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.errAt("a value")
}

// literal consumes the keyword lit.
func (d *jsonDecoder) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if d.peek() != lit[k] {
			return d.errAt("literal " + lit)
		}
		d.i++
	}
	return nil
}

// number consumes a number.
func (d *jsonDecoder) number() error {
	end, ok := numberEnd(d.b, d.i)
	d.i = end
	if !ok {
		return d.errAt("a digit")
	}
	return nil
}

// numberEnd scans a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, from b[i]. It returns the
// index past it, or false and the index of the byte that breaks it.
func numberEnd(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return j, false
		}
		i = j
	}
	return i, true
}

// digitsEnd returns the index past the run of decimal digits at b[i].
func digitsEnd(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// str consumes a string whose opening quote is at d.i and returns its raw
// contents, escapes still in place. Control characters are invalid and
// escapes must be one of \" \\ \/ \b \f \n \r \t \uXXXX; other bytes,
// malformed UTF-8 included, pass as encoding/json lets them.
func (d *jsonDecoder) str() ([]byte, error) {
	d.i++
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], nil
		case c == '\\':
			d.i++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
				continue
			case 'u':
				d.i++
				for k := 0; k < 4; k++ {
					if !isHex(d.peek()) {
						return nil, d.errAt("a hex digit in a \\u escape")
					}
					d.i++
				}
				continue
			}
			return nil, d.errAt("an escape character")
		case c < ' ':
			return nil, d.errAt("a string character")
		default:
			d.i++
		}
	}
	return nil, d.errAt("the end of a string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// isInputKey reports whether a raw key (as str returns it) names the
// "input" field: whether its unquoted runes, folded as encoding/json
// folds names (ASCII letters to upper case, any other rune through
// unicode.SimpleFold to the first rune not above it), spell "INPUT". So
// "Input", "INPUT", "input" and "ınput" (dotless i) all match.
func isInputKey(raw []byte) bool {
	const want = "INPUT"
	var buf [len(want) + utf8.UTFMax]byte
	folded := buf[:0]
	for i := 0; i < len(raw); {
		var r rune
		switch c := raw[i]; {
		case c == '\\':
			r, i = unescape(raw, i)
		case c < utf8.RuneSelf:
			r, i = rune(c), i+1
		default:
			var n int
			r, n = utf8.DecodeRune(raw[i:])
			i += n
		}
		if r < utf8.RuneSelf {
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
			folded = append(folded, byte(r))
		} else {
			folded = utf8.AppendRune(folded, foldRune(r))
		}
		if len(folded) > len(want) {
			return false
		}
	}
	return string(folded) == want
}

// foldRune walks r's simple-fold orbit to the first rune not above it.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unescape decodes the escape at raw[i] (a '\\' that str validated) and
// returns the rune and the index past it. A \u surrogate is returned as
// is, without pairing: paired or not, it folds to no ASCII rune, so it
// cannot make a key match "input".
func unescape(raw []byte, i int) (rune, int) {
	switch c := raw[i+1]; c {
	case 'b':
		return '\b', i + 2
	case 'f':
		return '\f', i + 2
	case 'n':
		return '\n', i + 2
	case 'r':
		return '\r', i + 2
	case 't':
		return '\t', i + 2
	case 'u':
	default:
		return rune(c), i + 2
	}
	return hex4(raw[i+2 : i+6]), i + 6
}

// hex4 decodes four hex digits that str validated.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
