// Package snap is the versioned snapshot layer: a deterministic binary
// encoding (little-endian, fixed field order, maps always serialized in
// sorted key order) inside a self-describing container with a format
// version, a configuration hash, and a CRC-32 trailer. Every stateful
// component of the simulator implements Snapshotter over a Writer/Reader
// pair; internal/sim composes them into one checkpoint file that can
// suspend an in-flight run and resume it bit-identically (DESIGN.md §5.10).
//
// Design rules the format depends on:
//
//   - Encoding is purely positional: no field tags, no lengths except for
//     slices/strings/maps. Version compatibility is therefore all-or-
//     nothing — any layout change bumps Version and old snapshots are
//     rejected rather than misread.
//   - The config hash binds a snapshot to the exact semantic configuration
//     that produced it. Resuming under a different configuration would not
//     crash, it would silently diverge; the hash turns that into a loud
//     error before any state is touched.
//   - The CRC-32 (IEEE) trailer covers header and payload, so truncated or
//     bit-rotted files are rejected with a checksum error instead of being
//     decoded into garbage state.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Version is the snapshot format version. Bump it on ANY change to what any
// component serializes or the order it serializes it in; resume rejects
// mismatches.
const Version uint32 = 2

// magic identifies a snapshot file (8 bytes).
var magic = [8]byte{'M', 'I', 'L', 'S', 'N', 'A', 'P', 0}

// Snapshotter is implemented by every stateful component: Snapshot appends
// the component's full mutable state to w; Restore reads it back in the
// same order into an already-constructed component (constructors rebuild
// everything derivable from configuration; Restore only overwrites the
// mutable remainder).
type Snapshotter interface {
	Snapshot(w *Writer)
	Restore(r *Reader) error
}

// Writer accumulates the deterministic binary payload. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64 (two's complement, little-endian).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bit pattern (exact round trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len appends a slice/map length. Negative lengths are a programming error.
func (w *Writer) Len(n int) {
	if n < 0 {
		panic("snap: negative length")
	}
	w.U64(uint64(n))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Bytes64 appends a fixed 64-byte block (no length prefix).
func (w *Writer) Bytes64(b *[64]byte) { w.buf = append(w.buf, b[:]...) }

// I64s appends a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.Len(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
}

// Reader decodes a payload written by Writer, in the same order. Errors are
// sticky: after the first failure every read returns zero values and Err
// reports the failure, so decode sequences need a single check at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

// take returns the next n bytes, or nil after a failure.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("payload truncated at offset %d (need %d of %d bytes)", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Done reports whether the payload was fully consumed; components do not
// call it — the container's decoder uses it to reject trailing garbage.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.buf) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length and bounds it against the remaining payload (each
// element needs at least one byte), so a corrupted length cannot trigger a
// huge allocation.
func (r *Reader) Len() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("length %d exceeds remaining payload %d", n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes64 reads a fixed 64-byte block.
func (r *Reader) Bytes64(out *[64]byte) {
	b := r.take(64)
	if b != nil {
		copy(out[:], b)
	}
}

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() []int64 {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// headerLen is magic + version + config hash + payload length.
const headerLen = 8 + 4 + 8 + 8

// Container frames payloads for one file format: an 8-byte magic, a format
// version, a 64-bit configuration hash, the payload length, and a CRC-32
// (IEEE) trailer over everything before it. The snapshot layer is one
// instance; other deterministic artifacts (the memory-trace format in
// internal/trace) reuse the identical framing under their own magic and
// version so every format shares the same corruption, truncation,
// version-skew, and config-mismatch rejection behavior.
type Container struct {
	Magic   [8]byte
	Version uint32
	// Name appears in error messages ("not a snapshot file").
	Name string
}

// snapContainer frames checkpoint snapshots (the original format).
var snapContainer = Container{Magic: magic, Version: Version, Name: "snapshot"}

// Encode frames a payload: header (magic, format version, config hash,
// payload length), payload, CRC-32 trailer.
func (c Container) Encode(cfgHash uint64, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+4)
	out = append(out, c.Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, c.Version)
	out = binary.LittleEndian.AppendUint64(out, cfgHash)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// Decode validates a framed file — magic, format version, configuration
// hash, length, CRC — and returns a Reader over its payload. Any mismatch
// is an error before a single byte of content is decoded.
func (c Container) Decode(data []byte, wantHash uint64) (*Reader, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("snap: file too short (%d bytes) to be a %s", len(data), c.Name)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("snap: CRC mismatch (file %08x, computed %08x): %s is corrupt or truncated", want, got, c.Name)
	}
	if [8]byte(body[:8]) != c.Magic {
		return nil, fmt.Errorf("snap: bad magic %q: not a %s file", body[:8], c.Name)
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != c.Version {
		return nil, fmt.Errorf("snap: %s format version %d, this build reads %d", c.Name, v, c.Version)
	}
	if h := binary.LittleEndian.Uint64(body[12:20]); h != wantHash {
		return nil, fmt.Errorf("snap: config hash %016x does not match this run's %016x: the %s must be used under the exact configuration that wrote it", h, wantHash, c.Name)
	}
	n := binary.LittleEndian.Uint64(body[20:28])
	payload := body[headerLen:]
	if n != uint64(len(payload)) {
		return nil, fmt.Errorf("snap: payload length %d, header says %d", len(payload), n)
	}
	return NewReader(payload), nil
}

// WriteFile atomically writes a framed file: the bytes go to a temporary
// file in the destination directory which is then renamed over path, so a
// crash mid-write can never leave a half-written artifact where a reader
// would find it.
func (c Container) WriteFile(path string, cfgHash uint64, payload []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(c.Encode(cfgHash, payload)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadFile reads and validates a framed file.
func (c Container) ReadFile(path string, wantHash uint64) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := c.Decode(data, wantHash)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Encode frames a snapshot payload (see Container.Encode).
func Encode(cfgHash uint64, payload []byte) []byte {
	return snapContainer.Encode(cfgHash, payload)
}

// Decode validates a framed snapshot (see Container.Decode).
func Decode(data []byte, wantHash uint64) (*Reader, error) {
	return snapContainer.Decode(data, wantHash)
}

// WriteFile atomically writes a framed snapshot (see Container.WriteFile).
func WriteFile(path string, cfgHash uint64, payload []byte) error {
	return snapContainer.WriteFile(path, cfgHash, payload)
}

// ReadFile reads and validates a snapshot file.
func ReadFile(path string, wantHash uint64) (*Reader, error) {
	return snapContainer.ReadFile(path, wantHash)
}
