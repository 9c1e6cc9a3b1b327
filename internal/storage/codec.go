package storage

// Binary codec for WAL mutation records, plus the primitives and the
// universe / attribute-list decoders the manifest codec (manifest.go)
// shares. All integers are unsigned varints except tuple values, which
// are fixed 4-byte little-endian for bulk speed.

import (
	"encoding/binary"
	"fmt"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// Decode sanity caps: decoding is driven by untrusted bytes (fuzzed or
// corrupted files), so every count is bounded before allocation.
const (
	maxNames     = 1 << 20 // universe attributes
	maxNameLen   = 1 << 12 // bytes per attribute name
	maxRelations = 1 << 20 // relation schemas
	maxBatchMuts = 1 << 20 // mutations per WAL record
)

// ErrCorrupt is wrapped by every decode failure, so callers can
// distinguish corruption from I/O errors.
var ErrCorrupt = fmt.Errorf("storage: corrupt data")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// --- primitive readers over a byte slice ---

type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, corruptf("truncated varint (%s)", what)
	}
	r.off += n
	return v, nil
}

func (r *reader) count(what string, max int) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, corruptf("%s count %d exceeds cap %d", what, v, max)
	}
	return int(v), nil
}

func (r *reader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, corruptf("truncated %s (%d bytes wanted, %d left)", what, n, r.remaining())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) values(n int, what string) ([]relation.Value, error) {
	b, err := r.bytes(n*relation.ValueBytes, what)
	if err != nil {
		return nil, err
	}
	vals := make([]relation.Value, n)
	for i := range vals {
		vals[i] = relation.Value(binary.LittleEndian.Uint32(b[i*relation.ValueBytes:]))
	}
	return vals, nil
}

// --- primitive writers ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendValues(dst []byte, vals []relation.Value) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// decodeUniverse reads the interned attribute-name table into a fresh
// universe, returning it with its attribute count.
func decodeUniverse(r *reader) (*schema.Universe, int, error) {
	nNames, err := r.count("universe names", maxNames)
	if err != nil {
		return nil, 0, err
	}
	u := schema.NewUniverse()
	for i := 0; i < nNames; i++ {
		ln, err := r.count("name length", maxNameLen)
		if err != nil {
			return nil, 0, err
		}
		b, err := r.bytes(ln, "name")
		if err != nil {
			return nil, 0, err
		}
		name := string(b)
		if name == "" {
			return nil, 0, corruptf("empty attribute name at id %d", i)
		}
		if _, ok := u.Lookup(name); ok {
			return nil, 0, corruptf("duplicate attribute name %q", name)
		}
		if got := u.Attr(name); int(got) != i {
			return nil, 0, corruptf("attribute %q interned as %d, want %d", name, got, i)
		}
	}
	return u, nNames, nil
}

// decodeAttrs reads a relation's attribute-id list: width ids, strictly
// increasing and below nNames, so the list is guaranteed to be a set
// matching the sorted arena column order.
func decodeAttrs(r *reader, nNames int) ([]schema.Attr, error) {
	width, err := r.count("relation width", nNames)
	if err != nil {
		return nil, err
	}
	ids := make([]schema.Attr, width)
	prev := -1
	for i := range ids {
		a, err := r.uvarint("attribute id")
		if err != nil {
			return nil, err
		}
		if int(a) >= nNames || int(a) <= prev {
			return nil, corruptf("attribute id %d (after %d, universe %d)", a, prev, nNames)
		}
		prev = int(a)
		ids[i] = schema.Attr(a)
	}
	return ids, nil
}

// --- mutation codec (WAL record payload) ---

// appendBatch encodes a mutation batch as one WAL record payload.
func appendBatch(dst []byte, muts []Mutation) []byte {
	dst = appendUvarint(dst, uint64(len(muts)))
	for _, m := range muts {
		dst = appendMutation(dst, m)
	}
	return dst
}

func appendMutation(dst []byte, m Mutation) []byte {
	dst = append(dst, byte(m.Kind))
	switch m.Kind {
	case KindInsert, KindDelete:
		dst = appendUvarint(dst, uint64(m.Rel))
		dst = appendUvarint(dst, uint64(m.Width))
		dst = appendUvarint(dst, uint64(m.Rows()))
		dst = appendValues(dst, m.Values)
	case KindCreate:
		dst = appendUvarint(dst, uint64(len(m.Attrs)))
		for _, a := range m.Attrs {
			dst = appendUvarint(dst, uint64(len(a)))
			dst = append(dst, a...)
		}
	case KindDrop:
		dst = appendUvarint(dst, uint64(m.Rel))
	case KindCursor:
		dst = appendUvarint(dst, m.Cursor.Seg)
		dst = appendUvarint(dst, uint64(m.Cursor.Off))
	}
	return dst
}

// decodeBatch decodes one WAL record payload. The whole payload must
// be consumed.
func decodeBatch(buf []byte) ([]Mutation, error) {
	r := &reader{buf: buf}
	n, err := r.count("batch size", maxBatchMuts)
	if err != nil {
		return nil, err
	}
	muts := make([]Mutation, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		m, err := decodeMutation(r)
		if err != nil {
			return nil, fmt.Errorf("mutation %d: %w", i, err)
		}
		muts = append(muts, m)
	}
	if r.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after batch", r.remaining())
	}
	return muts, nil
}

func decodeMutation(r *reader) (Mutation, error) {
	kb, err := r.bytes(1, "mutation kind")
	if err != nil {
		return Mutation{}, err
	}
	m := Mutation{Kind: Kind(kb[0])}
	switch m.Kind {
	case KindInsert, KindDelete:
		rel, err := r.count("relation index", maxRelations)
		if err != nil {
			return Mutation{}, err
		}
		width, err := r.count("width", maxNames)
		if err != nil {
			return Mutation{}, err
		}
		rows, err := r.uvarint("rows")
		if err != nil {
			return Mutation{}, err
		}
		if width == 0 {
			// The canonical zero-width batch: exactly one empty tuple,
			// no values.
			if rows != 1 {
				return Mutation{}, corruptf("zero-width %s batch with %d rows", m.Kind, rows)
			}
			m.Rel = rel
			return m, nil
		}
		if rows > uint64(r.remaining()/(width*relation.ValueBytes)) {
			return Mutation{}, corruptf("row count %d exceeds remaining bytes", rows)
		}
		vals, err := r.values(int(rows)*width, "tuple batch")
		if err != nil {
			return Mutation{}, err
		}
		m.Rel, m.Width, m.Values = rel, width, vals
	case KindCreate:
		n, err := r.count("create attributes", maxNames)
		if err != nil {
			return Mutation{}, err
		}
		m.Attrs = make([]string, n)
		for i := range m.Attrs {
			ln, err := r.count("attribute name length", maxNameLen)
			if err != nil {
				return Mutation{}, err
			}
			b, err := r.bytes(ln, "attribute name")
			if err != nil {
				return Mutation{}, err
			}
			m.Attrs[i] = string(b)
		}
	case KindDrop:
		rel, err := r.count("relation index", maxRelations)
		if err != nil {
			return Mutation{}, err
		}
		m.Rel = rel
	case KindCursor:
		seg, err := r.uvarint("cursor segment")
		if err != nil {
			return Mutation{}, err
		}
		off, err := r.uvarint("cursor offset")
		if err != nil {
			return Mutation{}, err
		}
		if off > 1<<62 {
			return Mutation{}, corruptf("cursor offset %d", off)
		}
		m.Cursor = Cursor{Seg: seg, Off: int64(off)}
	default:
		return Mutation{}, corruptf("unknown mutation kind %d", kb[0])
	}
	return m, nil
}
