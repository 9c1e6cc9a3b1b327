package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gyokit/internal/relation"
)

// refMutate and refLoad are the write bodies' shapes as encoding/json
// decodes them, the reference FuzzMutateDecode holds decodeMutate and
// decodeLoad to.
type refMutate struct {
	Rel    string                  `json:"rel"`
	Index  *int                    `json:"index"`
	Tuples fresh[[]relation.Tuple] `json:"tuples"`
}

type refLoad struct {
	Relations fresh[[]refMutate] `json:"relations"`
}

// fresh decodes every occurrence of its key from scratch. Left alone,
// encoding/json decodes a repeated key into the slices the previous
// occurrence filled, so a null element would keep that occurrence's
// value; the request language is that a repeated key keeps its last
// value and a null element is 0.
type fresh[T any] struct{ v T }

func (f *fresh[T]) UnmarshalJSON(b []byte) error {
	var v T
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	f.v = v
	return nil
}

// fromRef is the mutateRequest a reference decode denotes.
func fromRef(ref refMutate) mutateRequest {
	req := mutateRequest{rel: ref.Rel, odd: -1, tuples: len(ref.Tuples.v)}
	if ref.Index != nil {
		req.index, req.hasIndex = *ref.Index, true
	}
	for i, t := range ref.Tuples.v {
		req.values = append(req.values, t...)
		if i == 0 {
			req.arity = len(t)
		} else if req.odd < 0 && len(t) != req.arity {
			req.odd, req.oddArity = i, len(t)
		}
	}
	return req
}

func sameRequest(got, want mutateRequest) error {
	if got.rel != want.rel || got.hasIndex != want.hasIndex || got.index != want.index ||
		got.tuples != want.tuples || got.arity != want.arity || got.odd != want.odd || got.oddArity != want.oddArity {
		return fmt.Errorf("decoded rel %q index %v/%d tuples %d arity %d odd %d/%d, encoding/json rel %q index %v/%d tuples %d arity %d odd %d/%d",
			got.rel, got.hasIndex, got.index, got.tuples, got.arity, got.odd, got.oddArity,
			want.rel, want.hasIndex, want.index, want.tuples, want.arity, want.odd, want.oddArity)
	}
	if !slices.Equal(got.values, want.values) {
		return fmt.Errorf("decoded values %v, encoding/json %v", got.values, want.values)
	}
	return nil
}

// FuzzMutateDecode holds the write bodies' decoder to encoding/json: on
// every input, decodeWith with decodeMutate (as /v1/insert and
// /v1/delete run it) and with decodeLoad (as /v1/load does) must answer
// the status decodeCapped gives the same body decoded by encoding/json
// into refMutate or refLoad, and on accept decode the same rel, index,
// tuple count, arity verdict and flat values.
func FuzzMutateDecode(f *testing.F) {
	for _, s := range []string{
		`{"rel": "ab", "tuples": [[1,2],[3,4]]}`,
		`{"rel":"ab","index":0,"tuples":[[1,2]]}`,
		` { "rel" : "ab" , "tuples" : [ [ 1 , 2 ] ] } ` + "\n\t\r",
		`{"REL": "ab", "Tuples": [[1,2]]}`,
		`{"rel": "ab", "tupleſ": [[1,2]]}`,
		`{"rel": "ab", "tuples": [[1,2]]}`,
		`{"rel": "abé", "tuples": [[1,2]]}`,
		`{"rel": "é", "tuples": [[1,2]]}`,
		"{\"rel\": \"a\xffb\", \"tuples\": [[1,2]]}",
		"{\"rel\": \"a\x01b\", \"tuples\": [[1,2]]}",
		`{"rel": "a\qb", "tuples": [[1,2]]}`,
		`{"rel": "ab", "tuples": [[1,null]]}`,
		`{"rel": "ab", "tuples": [null]}`,
		`{"rel": "ab", "tuples": [null, [1,2], [3]]}`,
		`{"rel": "ab", "tuples": [[1,2], [3], [4,5,6]]}`,
		`{"rel": "ab", "tuples": null}`,
		`{"rel": null, "tuples": [[1,2]]}`,
		`{"rel": "ab", "rel": null, "tuples": [[1,2]]}`,
		`{"rel": "ab", "index": null, "tuples": [[1,2]]}`,
		`{"rel": "ab", "index": 1, "index": null, "tuples": [[1,2]]}`,
		`{"rel": "ab", "tuples": [[1e2,2]]}`,
		`{"rel": "ab", "tuples": [[1.0,2]]}`,
		`{"rel": "ab", "tuples": [[-0,2]]}`,
		`{"rel": "ab", "tuples": [[-2147483648,2147483647]]}`,
		`{"rel": "ab", "tuples": [[2147483648,2]]}`,
		`{"rel": "ab", "tuples": [[-2147483649,2]]}`,
		`{"rel": "ab", "tuples": [[01,2]]}`,
		`{"rel": "ab", "tuples": [[-,2]]}`,
		`{"rel": "ab", "tuples": [["ab",2]]}`,
		`{"rel": "ab", "tuples": [[true,2]]}`,
		`{"rel": "ab", "index": 9223372036854775807, "tuples": [[1,2]]}`,
		`{"rel": "ab", "index": -9223372036854775808, "tuples": [[1,2]]}`,
		`{"rel": "ab", "index": 9223372036854775808, "tuples": [[1,2]]}`,
		`{"rel": "ab", "index": 1e0, "tuples": [[1,2]]}`,
		`{"rel": "ab", "index": "0", "tuples": [[1,2]]}`,
		`{"rel": "ab", "tuples": [[5,6],[7,8]], "tuples": [[1,null]]}`,
		`{"rel": "ab", "tuples": [[1,2]], "tuples": null}`,
		`{"rel": "ab", "tuples": [[1,2]], "extra": 1}`,
		`{"rel": "ab", "tuples": [[1,2],]}`,
		`{"rel": "ab", "tuples": [[1,2]],}`,
		`{"rel": "ab" "tuples": [[1,2]]}`,
		`{"rel": "ab", "tuples": [[1 2]]}`,
		`{"rel": "ab", "tuples": [[1,2]]`,
		`{"rel": "ab", "tuples": [[1,2]]}{"rel": "ab", "tuples": [[3,4]]}`,
		`{"rel": "ab", "tuples": [[1,2]]} x`,
		`{"rel": "ab", "tuples": [[1,2]]}]`,
		`{}`,
		`null`,
		` null `,
		`nul`,
		`[]`,
		`"ab"`,
		``,
		`{"relations": [{"rel": "ab", "tuples": [[1,2]]}, {"rel": "bc", "tuples": [[2,5]]}]}`,
		`{"Relations": [null, {"rel": "ab", "tuples": [[1,2]]}]}`,
		`{"relations": [{"rel": "ab", "tuples": [[1,2]]}], "relations": [{"tuples": [[3,null]]}]}`,
		`{"relations": null}`,
		`{"relations": []}`,
		`{"relations": [{"rel": "ab", "bogus": 1}]}`,
		`{"relations": [{"rel": "ab", "tuples": [[1,2]]}]} {}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxBodyBytes {
			// Over the cap the new decoder never looks at the body (413),
			// where encoding/json may meet a syntax error first (400).
			t.Skip()
		}
		var got mutateRequest
		var ref refMutate
		gotCode, wantCode := decodeStatuses(data,
			func(b []byte) error { return decodeMutate(b, &got) }, &ref)
		if gotCode != wantCode {
			t.Fatalf("mutate body %q: status %d, encoding/json %d", data, gotCode, wantCode)
		}
		if gotCode == http.StatusOK {
			if err := sameRequest(got, fromRef(ref)); err != nil {
				t.Fatalf("mutate body %q: %v", data, err)
			}
		}

		var gotLoad loadRequest
		var refL refLoad
		gotCode, wantCode = decodeStatuses(data,
			func(b []byte) error { return decodeLoad(b, &gotLoad) }, &refL)
		if gotCode != wantCode {
			t.Fatalf("load body %q: status %d, encoding/json %d", data, gotCode, wantCode)
		}
		if gotCode == http.StatusOK {
			if len(gotLoad.relations) != len(refL.Relations.v) {
				t.Fatalf("load body %q: %d relations, encoding/json %d", data, len(gotLoad.relations), len(refL.Relations.v))
			}
			for i, r := range refL.Relations.v {
				if err := sameRequest(gotLoad.relations[i], fromRef(r)); err != nil {
					t.Fatalf("load body %q: relations[%d]: %v", data, i, err)
				}
			}
		}
	})
}

// decodeStatuses runs body through decodeWith with decode and through
// decodeCapped into ref, and returns the two statuses (200 on accept).
func decodeStatuses(body []byte, decode func([]byte) error, ref any) (got, want int) {
	run := func(front func(w http.ResponseWriter, r *http.Request) bool) int {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/insert", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		if front(w, r) {
			return http.StatusOK
		}
		return w.Code
	}
	got = run(func(w http.ResponseWriter, r *http.Request) bool {
		return decodeWith(w, r, MaxBodyBytes, decode)
	})
	want = run(func(w http.ResponseWriter, r *http.Request) bool {
		return decodeCapped(w, r, ref, MaxBodyBytes)
	})
	return got, want
}

// BenchmarkDecodeMutation times the decode layer of a write: a
// 256-tuple /v1/insert body of relation ab read through the front door
// into the value block a storage.Mutation carries.
func BenchmarkDecodeMutation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString(`{"rel": "ab", "tuples": [`)
	for i := range 256 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", rng.Intn(1<<20), rng.Intn(1<<20))
	}
	sb.WriteString(`]}`)
	body := []byte(sb.String())
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &http.Request{
			Method: http.MethodPost,
			Header: http.Header{"Content-Type": {"application/json"}},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		var req mutateRequest
		if !decodeWith(w, r, MaxBodyBytes, func(b []byte) error { return decodeMutate(b, &req) }) || req.tuples != 256 {
			b.Fatalf("decode failed: status %d", w.Code)
		}
	}
}
