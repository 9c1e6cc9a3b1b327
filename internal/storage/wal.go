package storage

// WAL segment format. A segment file is an 8-byte magic header followed
// by a stream of framed records:
//
//	[u32 payloadLen LE] [u32 crc32c(payload) LE] [payload]
//
// where payload is one appendBatch encoding — one record per logical
// mutation batch, so a batch is atomic under crash recovery: a torn or
// corrupt final record drops the whole batch, never half of it. Replay
// stops at the first frame that is truncated, oversized, or fails its
// CRC; in the newest segment that is the expected torn-tail case and
// recovery resumes appending from the last valid offset, while in an
// older segment it is hard corruption (rotation only ever follows
// complete writes) and Open fails rather than silently dropping
// acknowledged data.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

var (
	walMagic  = []byte("GYOWAL01")
	castTable = crc32.MakeTable(crc32.Castagnoli)
)

const (
	walHeaderLen  = 8
	frameHedLen   = 8       // u32 len + u32 crc
	maxRecordSize = 1 << 30 // frames claiming more are treated as corruption
)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castTable) }

func crc32Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castTable, b) }

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func readU32(b []byte) uint32   { return binary.LittleEndian.Uint32(b) }
func readU64(b []byte) uint64   { return binary.LittleEndian.Uint64(b) }

// appendFrame wraps one record payload in the WAL framing.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castTable))
	return append(dst, payload...)
}

// nextFrame returns the payload of the frame at the head of data; ok is
// false when the frame is truncated, oversized, or fails its CRC (a
// torn write, bit rot or a torn overwrite).
func nextFrame(data []byte) (payload []byte, ok bool) {
	if len(data) < frameHedLen {
		return nil, false
	}
	// ln < 0 guards 32-bit platforms, where a corrupt u32 length ≥ 2³¹
	// wraps negative and would slice out of bounds.
	ln := int(readU32(data))
	if ln < 0 || ln > maxRecordSize || len(data)-frameHedLen < ln {
		return nil, false
	}
	payload = data[frameHedLen : frameHedLen+ln]
	return payload, crcOf(payload) == readU32(data[4:])
}

// replaySegment scans one segment's bytes, invoking fn for every valid
// record batch in order. It returns the byte offset of the end of the
// last valid record (the segment's recoverable prefix) and whether the
// scan consumed the segment cleanly (false means it stopped early at a
// torn or corrupt frame). A short or missing header yields (0, false).
// Errors returned by fn abort the scan immediately.
func replaySegment(data []byte, fn func(muts []Mutation) error) (validLen int, clean bool, err error) {
	if len(data) < walHeaderLen || string(data[:walHeaderLen]) != string(walMagic) {
		return 0, false, nil
	}
	off := walHeaderLen
	for off < len(data) {
		payload, ok := nextFrame(data[off:])
		if !ok {
			return off, false, nil
		}
		muts, err := decodeBatch(payload)
		if err != nil {
			// A CRC-valid frame whose payload does not decode: treat like
			// any other invalid record and stop here.
			return off, false, nil
		}
		if err := fn(muts); err != nil {
			return off, false, fmt.Errorf("replaying record at offset %d: %w", off, err)
		}
		off += frameHedLen + len(payload)
	}
	return off, true, nil
}
