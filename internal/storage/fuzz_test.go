package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeFrames feeds the shipping-layer frame decoder arbitrary segment
// bodies, including frames that carry the compressed flag: it must never
// panic, and must agree with ValidFramePrefix on where the valid prefix
// ends whenever it succeeds.
func FuzzDecodeFrames(f *testing.F) {
	data, err := os.ReadFile(filepath.Join(goldenFramesDir, "idx.00000001.wal"))
	if err != nil {
		f.Fatal(err)
	}
	body := data[walSegHeaderV2Size:]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add([]byte{})
	// A CRC-valid compressed frame that does not decompress.
	bad := []byte{0x05, 0xff}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(bad))|walFrameCompressed)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(bad))
	f.Add(append(frame, bad...))

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, validLen, err := DecodeFrames(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0,%d]", validLen, len(data))
		}
		if err != nil {
			return
		}
		frames, prefix := ValidFramePrefix(data)
		if frames != len(payloads) || prefix != validLen {
			t.Fatalf("DecodeFrames %d frames / %d bytes, ValidFramePrefix %d / %d",
				len(payloads), validLen, frames, prefix)
		}
	})
}
