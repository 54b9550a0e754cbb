package storage

import (
	"encoding/binary"
	"fmt"
)

// Read side of the LZ77-style WAL frame compression older builds could
// enable per log. Nothing writes compressed frames any more, but logs and
// shipped segments written with compression on still replay and mirror:
// a frame whose length word has walFrameCompressed set holds
//
//	uvarint  decompressed length
//	tokens:
//	  0xxxxxxx                  literal run of (x+1) bytes, which follow
//	  1xxxxxxx uvarint-distance match of length (x+4) at the given
//	                            backwards distance (≥ 1)

const (
	walMatchMin = 4 // shortest match a token encodes
	walMatchMax = 127 + walMatchMin
)

// walDecompress expands a compressed frame payload. It is fully
// bounds-checked: arbitrary (corrupt) input yields an error, never a panic
// — decompression sits on the recovery path, where the input is whatever
// the crash left behind.
func walDecompress(src []byte) ([]byte, error) {
	size, n := binary.Uvarint(src)
	// A match token expands at most walMatchMax bytes from 2 input bytes, so
	// any honest frame satisfies size ≤ len(src)·walMatchMax; a larger claim
	// is corrupt and must not drive the allocation below.
	if n <= 0 || size > walMaxRecord || size > uint64(len(src))*walMatchMax {
		return nil, fmt.Errorf("%w: compressed frame size", ErrWALCorrupt)
	}
	dst := make([]byte, 0, size)
	off := n
	for off < len(src) {
		tok := src[off]
		off++
		if tok&0x80 == 0 { // literal run
			run := int(tok) + 1
			if off+run > len(src) {
				return nil, fmt.Errorf("%w: truncated literal run", ErrWALCorrupt)
			}
			dst = append(dst, src[off:off+run]...)
			off += run
			continue
		}
		length := int(tok&0x7f) + walMatchMin
		dist, n := binary.Uvarint(src[off:])
		if n <= 0 || dist == 0 || dist > uint64(len(dst)) {
			return nil, fmt.Errorf("%w: bad match distance", ErrWALCorrupt)
		}
		off += n
		pos := len(dst) - int(dist)
		for k := 0; k < length; k++ { // may self-overlap; copy byte-wise
			dst = append(dst, dst[pos+k])
		}
	}
	if uint64(len(dst)) != size {
		return nil, fmt.Errorf("%w: decompressed length %d, want %d", ErrWALCorrupt, len(dst), size)
	}
	return dst, nil
}
