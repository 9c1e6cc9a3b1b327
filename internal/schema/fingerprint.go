package schema

import "sort"

// Fingerprints identify schemas and attribute sets across processes and
// universes: they hash attribute NAMES, not interned ids, so two
// schemas that denote the same relation-schema multiset fingerprint
// equally no matter which universe interned them or in which order.

const (
	fpOffset64 = 14695981039346656037 // FNV-1a offset basis
	fpPrime64  = 1099511628211        // FNV-1a prime
)

// fpMix is the splitmix64 finalizer: a full-avalanche bijection so that
// fingerprints differing in few bits spread over the whole word.
func fpMix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// SetFingerprint returns a 64-bit fingerprint of s that depends only on
// the (sorted) attribute names, so it is stable across universes and
// interning orders. The empty set has a fixed fingerprint.
func (u *Universe) SetFingerprint(s AttrSet) uint64 {
	names := make([]string, 0, s.Card())
	s.ForEach(func(a Attr) bool {
		names = append(names, u.Name(a))
		return true
	})
	sort.Strings(names)
	h := uint64(fpOffset64)
	for _, n := range names {
		for i := 0; i < len(n); i++ {
			h ^= uint64(n[i])
			h *= fpPrime64
		}
		// Separator byte outside UTF-8 text so "ab"+"c" ≠ "a"+"bc".
		h ^= 0xff
		h *= fpPrime64
	}
	return fpMix(h)
}

// Fingerprint returns a canonical 64-bit fingerprint of the multiset of
// relation schemas: per-relation SetFingerprint values are combined
// commutatively (sum and xor of avalanched values), so any ordering of
// the same relation schemas — including duplicates, which the sum
// counts — fingerprints identically. Like SetFingerprint it hashes
// names, so it is universe-independent.
func (d *Schema) Fingerprint() uint64 {
	var sum, xor uint64
	for _, r := range d.Rels {
		h := d.U.SetFingerprint(r)
		sum += h
		xor ^= fpMix(h)
	}
	return fpMix(sum ^ fpMix(xor^uint64(len(d.Rels))*fpPrime64))
}
