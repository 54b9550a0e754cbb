package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Compressed WAL frames (bit 31 of the length word) are no longer written,
// but logs and shipped segments from older builds still carry them. These
// tests pin the read side against testdata/golden/mixedframes, a segment an
// older build wrote with compression on for its first 24 records and off
// for the last 12 (see testdata/golden/README).

const goldenFramesDir = "testdata/golden/mixedframes"

// goldenFrames copies the golden segment into a temp dir and returns the
// copy's WAL prefix, its segment path, and the logical payloads the
// segment holds in LSN order.
func goldenFrames(t *testing.T) (prefix, segPath string, want [][]byte) {
	t.Helper()
	dir := t.TempDir()
	segPath = filepath.Join(dir, "idx.00000001.wal")
	data, err := os.ReadFile(filepath.Join(goldenFramesDir, "idx.00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(filepath.Join(goldenFramesDir, "payloads.hex"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Fields(string(lines)) {
		p, err := hex.DecodeString(line)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	return filepath.Join(dir, "idx"), segPath, want
}

// frameFlags walks the frames of a segment body and reports, per frame,
// its offset and whether its compressed flag is set.
func frameFlags(t *testing.T, body []byte) (offs []int64, compressed []bool) {
	t.Helper()
	var off int64
	for off < int64(len(body)) {
		n, ok := frameAt(body, off)
		if !ok {
			t.Fatalf("invalid frame at %d", off)
		}
		offs = append(offs, off)
		compressed = append(compressed, binary.LittleEndian.Uint32(body[off:])&walFrameCompressed != 0)
		off += n
	}
	return offs, compressed
}

func TestWALCompressedLogRoundTrip(t *testing.T) {
	prefix, _, want := goldenFrames(t)
	check := func(w *WAL, extra int) {
		t.Helper()
		recs, order := collect(t, w)
		if len(order) != len(want)+extra {
			t.Fatalf("replayed %d records, want %d", len(order), len(want)+extra)
		}
		for i, p := range want {
			if recs[uint64(i+1)] != string(p) {
				t.Fatalf("lsn %d: %q, want %q", i+1, recs[uint64(i+1)], p)
			}
		}
	}
	w := openTestWAL(t, prefix, WALOptions{})
	check(w, 0)
	// Appending to the legacy log keeps it replayable as a whole: new frames
	// are raw, old compressed frames still expand.
	if _, err := w.Append(bytes.Repeat([]byte("raw-after"), 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w = openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	check(w, 1)
}

// TestGoldenFramesDecode: the shipping-layer decoder expands the golden
// segment's compressed and raw frames alike to the recorded payloads.
func TestGoldenFramesDecode(t *testing.T) {
	_, segPath, want := goldenFrames(t)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	body := data[walSegHeaderV2Size:]
	_, compressed := frameFlags(t, body)
	var nc int
	for _, c := range compressed {
		if c {
			nc++
		}
	}
	if nc == 0 || nc == len(compressed) {
		t.Fatalf("golden segment has %d compressed of %d frames, want a mix", nc, len(compressed))
	}
	payloads, validLen, err := DecodeFrames(body)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != int64(len(body)) || len(payloads) != len(want) {
		t.Fatalf("decoded %d frames / %d bytes, want %d / %d", len(payloads), validLen, len(want), len(body))
	}
	for i := range want {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("frame %d: %q, want %q", i, payloads[i], want[i])
		}
	}
}

func TestWALCompressedTornTailTruncated(t *testing.T) {
	prefix, segPath, want := goldenFrames(t)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the segment right after its last compressed frame and flip one
	// byte inside that frame's payload: the CRC mismatch makes it a torn
	// tail, truncated on reopen.
	offs, compressed := frameFlags(t, data[walSegHeaderV2Size:])
	last := -1
	for i, c := range compressed {
		if c {
			last = i
		}
	}
	end := int64(len(data))
	if last+1 < len(offs) {
		end = walSegHeaderV2Size + offs[last+1]
	}
	data = data[:end]
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	recs, order := collect(t, w)
	if len(order) != last {
		t.Fatalf("replayed %d records after torn compressed tail, want %d", len(order), last)
	}
	for i := 0; i < last; i++ {
		if recs[uint64(i+1)] != string(want[i]) {
			t.Fatalf("lsn %d: %q, want %q", i+1, recs[uint64(i+1)], want[i])
		}
	}
}

func TestWALCRCValidButUndecompressableIsCorrupt(t *testing.T) {
	// A frame whose CRC verifies but whose compressed payload cannot be
	// expanded cannot be a torn write (the CRC covers every stored byte) —
	// it must surface as ErrWALCorrupt, never as a silent truncation or a
	// panic, through both WAL replay and the shipping decoder.
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	if _, err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	w.Sync()
	path, _ := w.ActiveSegment()
	w.Close()

	// Craft: size claims 5 bytes, then a match token with no distance.
	bad := []byte{0x05, 0xff}
	var frame [walFrameOverhead]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(bad))|walFrameCompressed)
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(bad))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame[:])
	f.Write(bad)
	f.Close()

	w = openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	err = w.Replay(func(lsn uint64, payload []byte) error { return nil })
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Replay = %v, want ErrWALCorrupt", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFrames(data[walSegHeaderV2Size:]); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("DecodeFrames = %v, want ErrWALCorrupt", err)
	}
}

func TestWALDecompressCorruptInputs(t *testing.T) {
	// Arbitrary corrupt compressed frames must error, never panic or
	// over-allocate.
	cases := [][]byte{
		{},
		{0x80, 0x01},                   // size claim with no tokens → length mismatch
		{0xff, 0xff, 0xff, 0xff, 0x7f}, // huge size claim
		{0x05, 0x81, 0x00},             // match distance 0
		{0x05, 0x81, 0x7f},             // distance beyond output
		{0x0a, 0x7f, 0x41},             // literal run past input end
		append([]byte{0x40}, bytes.Repeat([]byte{0xff}, 10)...), // negative-uvarint style
	}
	for i, src := range cases {
		if out, err := walDecompress(src); err == nil {
			t.Fatalf("case %d: walDecompress accepted corrupt input (len %d)", i, len(out))
		}
	}
}
