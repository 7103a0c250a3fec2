package trace

import (
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mil/internal/bitblock"
	"mil/internal/cache"
)

// mkTrace builds a small trace exercising every event kind and field.
func mkTrace() *Trace {
	var data bitblock.Block
	for i := range data {
		data[i] = byte(i * 7)
	}
	return &Trace{
		CPUCycles:    101,
		DRAMCycles:   51,
		Instructions: 4242,
		Cache: cache.Stats{
			L1Hits: 1, L1Misses: 2, L2Hits: 3, L2Misses: 4, MSHRMerges: 5,
			PrefetchHits: 6, Writebacks: 7, Upgrades: 8, Interventions: 9,
			PrefetchesIssued: 10, PrefetchesDropped: 11, BackInvalidations: 12,
		},
		EventsFired:    61,
		CyclesSkipped:  40,
		Steplock:       false,
		ThreadBlocks:   13,
		WBBackpressure: 14,
		FillRetries:    15,
		WBQueuePeak:    3,
		Events: []Event{
			{Kind: ReadAccept, Clock: 0, Line: 100, Stream: 2, Demand: true, DoneAt: 17},
			{Kind: WriteAccept, Clock: 4, Line: 200, Stream: 0, Data: data, DoneAt: 30},
			{Kind: Promote, Clock: 9, Line: 100},
			{Kind: ReadAccept, Clock: 9, Line: 300, Stream: 1, Demand: false, DoneAt: 44},
			// Two writebacks enqueued inside event 0's completion.
			{Kind: WriteAccept, Clock: 17, Line: 400, Stream: 0, Data: data, DoneAt: 25, Parent: 1},
			{Kind: WriteAccept, Clock: 17, Line: 500, Stream: 0, Data: data, DoneAt: 26, Parent: 1},
		},
	}
}

const testHash = uint64(0xfeedface12345678)

func TestTraceRoundTrip(t *testing.T) {
	tr := mkTrace()
	enc := tr.Encode(testHash)
	got, err := Decode(enc, testHash)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip drifted:\n  in:  %+v\n  out: %+v", tr, got)
	}
	// Encoding is canonical: same value, same bytes.
	if !reflect.DeepEqual(enc, got.Encode(testHash)) {
		t.Fatal("re-encoding a decoded trace produced different bytes")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := mkTrace()
	path := filepath.Join(t.TempDir(), "run.miltrace")
	if err := WriteFile(path, testHash, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFile(path, testHash)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("file round trip drifted")
	}
	if _, err := ReadFile(path, testHash+1); err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Fatalf("mismatched front-end hash: got %v, want a config hash error", err)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent"), testHash); err == nil {
		t.Fatal("reading a missing file succeeded")
	}
}

// TestTraceContainerRejections mirrors the snap container tests: corrupt,
// version-skewed, wrong-magic, and wrong-hash files are rejected with the
// matching error before any event is decoded.
func TestTraceContainerRejections(t *testing.T) {
	enc := mkTrace().Encode(testHash)
	reseal := func(b []byte) []byte {
		body := b[:len(b)-4]
		return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
	}

	flipped := append([]byte(nil), enc...)
	flipped[28] ^= 0x40 // first payload byte; CRC now fails
	if _, err := Decode(flipped, testHash); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("bit flip: got %v, want a CRC error", err)
	}

	skew := append([]byte(nil), enc...)
	skew[8]++ // format version
	if _, err := Decode(reseal(skew), testHash); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew: got %v, want a version error", err)
	}

	magic := append([]byte(nil), enc...)
	magic[0] = 'X'
	if _, err := Decode(reseal(magic), testHash); err == nil || !strings.Contains(err.Error(), "not a trace file") {
		t.Errorf("bad magic: got %v, want a magic error", err)
	}

	if _, err := Decode(enc, testHash^1); err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Errorf("hash mismatch: got %v, want a config hash error", err)
	}
}

// TestTraceTruncation feeds every torn prefix of a valid trace to Decode:
// each must error (almost always a CRC failure), never panic or return a
// silently shortened trace.
func TestTraceTruncation(t *testing.T) {
	enc := mkTrace().Encode(testHash)
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n], testHash); err == nil {
			t.Fatalf("decode of a %d/%d-byte prefix succeeded", n, len(enc))
		}
	}
}

// TestTraceStructuralValidation pins the invariants replay depends on:
// Decode rejects traces whose events could drive the controller wrong.
func TestTraceStructuralValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"unknown kind", func(tr *Trace) { tr.Events[2].Kind = 9 }, "unknown kind"},
		{"clock regression", func(tr *Trace) { tr.Events[3].Clock = 3 }, "acceptance order"},
		{"negative clock", func(tr *Trace) { tr.Events[0].Clock = -1 }, "acceptance order"},
		{"clock beyond horizon", func(tr *Trace) { tr.Events[5].Clock = 51; tr.Events[5].DoneAt = 52 }, "outside"},
		{"done before accept", func(tr *Trace) { tr.Events[1].DoneAt = 4 }, "done at"},
		{"done beyond horizon", func(tr *Trace) { tr.Events[1].DoneAt = 51 }, "done at"},
		{"loop counters", func(tr *Trace) { tr.EventsFired = 60 }, "loop counters"},
		{"empty run", func(tr *Trace) { tr.DRAMCycles = 0; tr.Events = nil }, "at least one"},
		{"parent after child", func(tr *Trace) { tr.Events[4].Parent = 6 }, "not an earlier read"},
		{"negative parent", func(tr *Trace) { tr.Events[4].Parent = -3 }, "not an earlier read"},
		{"parent not a read", func(tr *Trace) { tr.Events[4].Parent = 2 }, "not an earlier read"},
		{"parent completes elsewhere", func(tr *Trace) { tr.Events[0].DoneAt = 16 }, "completing then"},
		{"children split", func(tr *Trace) {
			tr.Events[5].Parent = 0
			tr.Events = append(tr.Events, Event{Kind: WriteAccept, Clock: 17, Line: 600, DoneAt: 27, Parent: 1})
		}, "not contiguous"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := mkTrace()
			c.mut(tr)
			_, err := Decode(tr.Encode(testHash), testHash)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestCacheStatsDriftGuard fails when cache.Stats changes shape: the trace
// format serializes it positionally, so any added, removed, or retyped
// field must update writeCacheStats/readCacheStats and bump Version.
func TestCacheStatsDriftGuard(t *testing.T) {
	typ := reflect.TypeOf(cache.Stats{})
	const want = 12
	if typ.NumField() != want {
		t.Fatalf("cache.Stats has %d fields, the trace format serializes %d: "+
			"update writeCacheStats/readCacheStats and bump trace.Version", typ.NumField(), want)
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Int64 {
			t.Fatalf("cache.Stats.%s is %s; the trace format assumes int64 fields", f.Name, f.Type)
		}
	}
}

// FuzzTraceRoundTrip: whatever bytes arrive — torn tails, header
// mutations, CRC flips, version skew — Decode either returns an error or a
// trace that re-encodes canonically; it never panics and never silently
// truncates.
func FuzzTraceRoundTrip(f *testing.F) {
	valid := mkTrace().Encode(testHash)
	f.Add(append([]byte(nil), valid...), testHash)
	f.Add(append([]byte(nil), valid...), testHash^1) // hash mismatch
	torn := append([]byte(nil), valid[:len(valid)-9]...)
	f.Add(torn, testHash)
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0xff
	f.Add(crcFlip, testHash)
	skew := append([]byte(nil), valid...)
	skew[8] ^= 0x02 // version field
	f.Add(skew, testHash)
	hdr := append([]byte(nil), valid...)
	hdr[20] ^= 0x80 // payload length field
	f.Add(hdr, testHash)
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, hash uint64) {
		tr, err := Decode(data, hash)
		if err != nil {
			return
		}
		re := tr.Encode(hash)
		tr2, err := Decode(re, hash)
		if err != nil {
			t.Fatalf("re-encode of a decoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip drifted:\n  first:  %+v\n  second: %+v", tr, tr2)
		}
	})
}
