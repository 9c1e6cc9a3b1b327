package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"gyokit/internal/relation"
)

// mutateRequest is the /v1/insert and /v1/delete body, and one element
// of a /v1/load body: a relation (named by its attribute set, e.g.
// "ab") and a tuple batch in that relation's sorted-column order, as
//
//	{"rel": "ab", "index": 0, "tuples": [[1, 2], [3, 4]]}
//
// Schemas are multisets, so when the serving schema contains the same
// relation schema more than once, "rel" alone addresses the first
// occurrence; "index" (a position in the serving schema)
// disambiguates.
//
// The tuples arrive decoded into the row-major block a
// storage.Mutation carries: values holds every tuple's values in
// order, tuples counts them, arity is tuple 0's arity and odd the first
// tuple whose arity differs from it (-1 when none does), so the batch
// is well-formed for a relation of width w exactly when arity == w and
// odd < 0.
type mutateRequest struct {
	rel      string
	index    int
	hasIndex bool
	values   []relation.Value
	tuples   int
	arity    int
	odd      int
	oddArity int
}

// loadRequest is the /v1/load body: {"relations": [mutateRequest...]}.
type loadRequest struct {
	relations []mutateRequest
}

// decodeMutate decodes an /v1/insert or /v1/delete body. Bodies are
// decoded by hand, straight into the value block, and accept exactly
// the language encoding/json accepts for the request's shape with
// unknown fields disallowed and nothing after the value: keys match
// case-insensitively (bytes.EqualFold, after unescaping), a repeated
// key keeps its last value, null is a no-op for a string, an object or
// a tuple element (which is then 0) and empties an index, a tuple list
// or a tuple, and every number is an integer in its field's range
// (int32 for values, int for index). FuzzMutateDecode holds it to
// encoding/json.
func decodeMutate(body []byte, req *mutateRequest) error {
	*req = mutateRequest{odd: -1}
	return decodeObject(body, func(p *bodyParser) error { return p.mutateMember(req) })
}

// decodeLoad decodes a /v1/load body; see decodeMutate.
func decodeLoad(body []byte, req *loadRequest) error {
	*req = loadRequest{}
	return decodeObject(body, func(p *bodyParser) error {
		key, err := p.key()
		switch {
		case err != nil:
			return err
		case !bytes.EqualFold(key, []byte("relations")):
			return unknownField(key)
		}
		req.relations = nil
		if p.null() {
			return nil
		}
		done, err := p.open('[', ']')
		for ; !done && err == nil; done, err = p.next(']') {
			req.relations = append(req.relations, mutateRequest{odd: -1})
			el := &req.relations[len(req.relations)-1]
			if p.null() {
				continue
			}
			if err = p.object(func(p *bodyParser) error { return p.mutateMember(el) }); err != nil {
				return err
			}
		}
		return err
	})
}

// decodeObject decodes body as one JSON value, an object decoded member
// by member or null, followed by nothing but whitespace.
func decodeObject(body []byte, member func(*bodyParser) error) error {
	p := &bodyParser{b: body}
	p.space()
	if !p.null() {
		if err := p.object(member); err != nil {
			return err
		}
	}
	p.space()
	if p.i < len(p.b) {
		return p.errorf("unexpected data after the JSON value")
	}
	return nil
}

// bodyParser is a cursor over a request body.
type bodyParser struct {
	b []byte
	i int
}

func (p *bodyParser) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

func unknownField(key []byte) error {
	return fmt.Errorf("unknown field %q", key)
}

// space skips JSON whitespace.
func (p *bodyParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// null consumes the literal null, if it is next.
func (p *bodyParser) null() bool {
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += 4
		return true
	}
	return false
}

// open consumes the opening byte of an object or array, and its closing
// byte too when the object or array is empty, which reports done. A
// member or element loop then reads
//
//	for done, err := p.open('[', ']'); !done && err == nil; done, err = p.next(']')
func (p *bodyParser) open(opening, closing byte) (done bool, err error) {
	p.space()
	if p.i >= len(p.b) || p.b[p.i] != opening {
		return false, p.errorf("want %q", opening)
	}
	p.i++
	p.space()
	if p.i < len(p.b) && p.b[p.i] == closing {
		p.i++
		return true, nil
	}
	return false, nil
}

// next consumes the separator after a member or element: a comma, or
// the closing byte, which reports done. On a comma it also skips the
// whitespace before the next member or element.
func (p *bodyParser) next(closing byte) (done bool, err error) {
	p.space()
	if p.i >= len(p.b) {
		return false, p.errorf("unexpected end of body, want ',' or %q", closing)
	}
	switch p.b[p.i] {
	case ',':
		p.i++
		p.space()
		return false, nil
	case closing:
		p.i++
		return true, nil
	}
	return false, p.errorf("unexpected %q, want ',' or %q", p.b[p.i], closing)
}

// key reads an object member's key and its colon, leaving the cursor at
// the member's value.
func (p *bodyParser) key() ([]byte, error) {
	key, err := p.str()
	if err != nil {
		return nil, err
	}
	p.space()
	if p.i >= len(p.b) || p.b[p.i] != ':' {
		return nil, p.errorf("want ':'")
	}
	p.i++
	p.space()
	return key, nil
}

// str decodes a string. A string of printable ASCII without escapes is
// returned in place; any other is unquoted by encoding/json, which also
// rejects control bytes and bad escapes and replaces invalid UTF-8 as
// it does in every other request field.
func (p *bodyParser) str() ([]byte, error) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, p.errorf("want a string")
	}
	start, plain := p.i, true
	for p.i++; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			if plain {
				return p.b[start+1 : p.i-1], nil
			}
			var s string
			if err := json.Unmarshal(p.b[start:p.i], &s); err != nil {
				return nil, fmt.Errorf("offset %d: %w", start, err)
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			p.i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return nil, p.errorf("unterminated string")
}

// integer decodes a JSON number that must be an integer in the range of
// a signed integer of the given bits.
func (p *bodyParser) integer(bits uint) (int64, error) {
	start := p.i
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	digits := p.i
	var v uint64
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if v > (limit-d)/10 {
			return 0, fmt.Errorf("offset %d: number out of range for int%d", start, bits)
		}
		v = v*10 + d
	}
	switch n := p.i - digits; {
	case n == 0:
		return 0, p.errorf("want a number")
	case n > 1 && p.b[digits] == '0':
		return 0, fmt.Errorf("offset %d: number with a leading zero", start)
	case p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E'):
		return 0, fmt.Errorf("offset %d: number is not an integer", start)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// object decodes an object, calling member once per member with the
// cursor at its key.
func (p *bodyParser) object(member func(*bodyParser) error) error {
	done, err := p.open('{', '}')
	for ; !done && err == nil; done, err = p.next('}') {
		if err = member(p); err != nil {
			return err
		}
	}
	return err
}

// mutateMember decodes one member of a mutateRequest object into req.
func (p *bodyParser) mutateMember(req *mutateRequest) error {
	key, err := p.key()
	switch {
	case err != nil:
		return err
	case bytes.EqualFold(key, []byte("rel")):
		if p.null() {
			return nil
		}
		s, err := p.str()
		req.rel = string(s)
		return err
	case bytes.EqualFold(key, []byte("index")):
		req.index, req.hasIndex = 0, false
		if p.null() {
			return nil
		}
		i, err := p.integer(strconv.IntSize)
		req.index, req.hasIndex = int(i), true
		return err
	case bytes.EqualFold(key, []byte("tuples")):
		req.values, req.tuples, req.arity, req.odd, req.oddArity = req.values[:0], 0, 0, -1, 0
		if p.null() {
			return nil
		}
		return p.tuples(req)
	}
	return unknownField(key)
}

// tuples decodes a tuple list into req's block: each tuple is an array
// of values or null, each value an int32 or null.
func (p *bodyParser) tuples(req *mutateRequest) error {
	done, err := p.open('[', ']')
	for ; !done && err == nil; done, err = p.next(']') {
		n := len(req.values)
		if !p.null() {
			end, err := p.open('[', ']')
			for ; !end && err == nil; end, err = p.next(']') {
				var v int64
				if !p.null() {
					if v, err = p.integer(32); err != nil {
						return err
					}
				}
				req.values = append(req.values, relation.Value(v))
			}
			if err != nil {
				return err
			}
		}
		if arity := len(req.values) - n; req.tuples == 0 {
			req.arity = arity
		} else if req.odd < 0 && arity != req.arity {
			req.odd, req.oddArity = req.tuples, arity
		}
		req.tuples++
	}
	return err
}
