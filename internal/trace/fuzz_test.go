package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// decodeFuzzTrace builds a trace from raw fuzz bytes. The receiver
// count ranges up to 96 so fuzz inputs cross the sweep kernel's 64-bit
// active-bitset word boundary. Event fields are taken in one of two
// forms, selected per event by a flag bit: reduced modulo the horizon
// (so mutations usually stay structurally valid and reach the analysis
// code) or raw int64 (so mutations can attack Validate itself with
// extreme values — that form found the Start+Len overflow). Callers
// must still run Validate.
func decodeFuzzTrace(data []byte) *Trace {
	if len(data) < 4 {
		return nil
	}
	tr := &Trace{
		NumReceivers: 1 + int(data[0]%96),
		NumSenders:   1 + int(data[1]%4),
		Horizon:      1 + int64(binary.LittleEndian.Uint16(data[2:4]))%4096,
	}
	data = data[4:]
	const evBytes = 19
	for len(data) >= evBytes && len(tr.Events) < 64 {
		start := int64(binary.LittleEndian.Uint64(data[0:8]))
		length := int64(binary.LittleEndian.Uint64(data[8:16]))
		raw := data[16]&2 != 0
		if !raw {
			start = ((start % tr.Horizon) + tr.Horizon) % tr.Horizon
			rem := tr.Horizon - start // ≥ 1
			length = 1 + ((length%rem)+rem)%rem
		}
		tr.Events = append(tr.Events, Event{
			Start:    start,
			Len:      length,
			Sender:   int(data[17]) % tr.NumSenders,
			Receiver: int(data[18]) % tr.NumReceivers,
			Critical: data[16]&1 != 0,
		})
		data = data[evBytes:]
	}
	return tr
}

// fuzzEvent encodes one decodeFuzzTrace event record in the raw form
// (start and length taken verbatim), used to build precise seeds.
func fuzzEvent(start, length int64, recv, sender byte, critical bool) []byte {
	var ev [19]byte
	binary.LittleEndian.PutUint64(ev[0:8], uint64(start))
	binary.LittleEndian.PutUint64(ev[8:16], uint64(length))
	ev[16] = 2 // raw form
	if critical {
		ev[16] |= 1
	}
	ev[17] = sender
	ev[18] = recv
	return ev[:]
}

// FuzzAnalyze feeds arbitrary traces and window sizes through the
// window analysis and cross-checks the result three ways: against a
// brute-force per-cycle oracle over the receivers that actually carry
// traffic (every Comm entry, pairwise overlap and OM entry must match
// counts over an explicit busy-cycle bitmap), against the retained
// legacy pairwise kernel, and against the streaming reader fed the
// binary encoding of the same trace — all three must be bit-identical.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{3, 1, 40, 0}, int64(10))
	f.Add(append([]byte{2, 1, 64, 0},
		fuzzEvent(0, 8, 0, 0, false)...), int64(7))
	// Window size far beyond the horizon (single short window).
	f.Add([]byte{5, 2, 100, 0}, int64(math.MaxInt64))
	// Regression: a raw-form event whose Start+Len overflows int64 —
	// before the Validate fix it passed validation and corrupted the
	// interval sets.
	f.Add(append([]byte{2, 1, 64, 0},
		fuzzEvent(5, math.MaxInt64-2, 0, 0, false)...), int64(16))
	// Coincident endpoints: two receivers covering the same interval and
	// a third starting exactly where they end, which is also a window
	// boundary — the sweep's deactivation order is arbitrary among them.
	coincident := []byte{2, 0, 64, 0}
	coincident = append(coincident, fuzzEvent(8, 8, 0, 0, true)...)
	coincident = append(coincident, fuzzEvent(8, 8, 1, 0, false)...)
	coincident = append(coincident, fuzzEvent(16, 8, 2, 0, true)...)
	f.Add(coincident, int64(8))
	// Coverage ends flush with window boundaries (no partial windows).
	aligned := []byte{2, 0, 100, 0}
	aligned = append(aligned, fuzzEvent(10, 10, 0, 0, false)...)
	aligned = append(aligned, fuzzEvent(20, 10, 1, 0, true)...)
	aligned = append(aligned, fuzzEvent(10, 20, 2, 0, false)...)
	f.Add(aligned, int64(10))
	// All receivers simultaneously active (maximum pair fan-out).
	allActive := []byte{7, 0, 64, 0}
	for r := byte(0); r < 8; r++ {
		allActive = append(allActive, fuzzEvent(int64(r), 32, r, 0, r%2 == 0)...)
	}
	f.Add(allActive, int64(16))
	// Receivers above 64: the active bitset spans two words.
	wide := []byte{95, 0, 200, 0}
	wide = append(wide, fuzzEvent(0, 40, 70, 0, true)...)
	wide = append(wide, fuzzEvent(10, 40, 90, 0, false)...)
	wide = append(wide, fuzzEvent(20, 40, 1, 0, true)...)
	f.Add(wide, int64(25))

	f.Fuzz(func(t *testing.T, data []byte, ws int64) {
		tr := decodeFuzzTrace(data)
		if tr == nil {
			return
		}
		if tr.Validate() != nil {
			// Validate rejected it; the oracle below would be
			// meaningless. Reaching here with extreme raw fields is
			// itself the test that Validate cannot be bypassed.
			return
		}
		a, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			if ws <= 0 {
				return // the documented rejection
			}
			t.Fatalf("AnalyzeCtx rejected a valid trace: %v", err)
		}

		// Structural window invariants.
		nW := a.NumWindows()
		if a.Boundaries[0] != 0 || a.Boundaries[nW] != tr.Horizon {
			t.Fatalf("boundaries %v do not span [0,%d]", a.Boundaries, tr.Horizon)
		}
		for m := 0; m < nW; m++ {
			if a.WindowLen(m) <= 0 || (ws > 0 && a.WindowLen(m) > ws) {
				t.Fatalf("window %d has length %d (ws=%d)", m, a.WindowLen(m), ws)
			}
		}

		// Cross-kernel equivalence. The legacy kernel buffers every pair
		// row densely, so it is gated on the table area staying sane;
		// the streaming reader costs the same as the sweep and always
		// runs (on a start-sorted copy — order must not matter).
		nPairs := tr.NumReceivers * (tr.NumReceivers - 1) / 2
		if nPairs*nW <= 1<<22 {
			legacy, err := AnalyzeLegacy(context.Background(), tr, Windows{Size: ws})
			if err != nil {
				t.Fatalf("AnalyzeLegacy rejected a valid trace: %v", err)
			}
			if diffs := DiffAnalyses(a, legacy); len(diffs) > 0 {
				t.Fatalf("sweep vs legacy:\n%s", strings.Join(diffs, "\n"))
			}
		}
		sorted := sortedCopy(tr)
		streamed, err := AnalyzeReader(context.Background(), bytes.NewReader(encodeTrace(t, sorted)), ws)
		if err != nil {
			t.Fatalf("AnalyzeReader rejected a valid stream: %v", err)
		}
		if diffs := DiffAnalyses(a, streamed); len(diffs) > 0 {
			t.Fatalf("sweep vs stream:\n%s", strings.Join(diffs, "\n"))
		}

		// Brute-force oracle: explicit busy bitmaps, restricted to
		// receivers that appear in events (idle receivers cannot be
		// credited — the cross-kernel check above covers their rows).
		activeSet := map[int]bool{}
		for _, e := range tr.Events {
			activeSet[e.Receiver] = true
		}
		active := make([]int, 0, len(activeSet))
		for r := range activeSet {
			active = append(active, r)
		}
		sort.Ints(active)
		busy := make(map[int][]bool, len(active))
		for _, r := range active {
			busy[r] = make([]bool, tr.Horizon)
		}
		for _, e := range tr.Events {
			for c := e.Start; c < e.End(); c++ {
				busy[e.Receiver][c] = true
			}
		}
		countIn := func(marks []bool, lo, hi int64) int64 {
			var n int64
			for c := lo; c < hi; c++ {
				if marks[c] {
					n++
				}
			}
			return n
		}
		for ii, i := range active {
			for m := 0; m < nW; m++ {
				want := countIn(busy[i], a.Boundaries[m], a.Boundaries[m+1])
				if got := a.Comm.At(i, m); got != want {
					t.Fatalf("Comm(%d,%d) = %d, oracle %d", i, m, got, want)
				}
			}
			for _, j := range active[ii+1:] {
				both := make([]bool, tr.Horizon)
				for c := int64(0); c < tr.Horizon; c++ {
					both[c] = busy[i][c] && busy[j][c]
				}
				var total int64
				for m := 0; m < nW; m++ {
					want := countIn(both, a.Boundaries[m], a.Boundaries[m+1])
					got, err := a.PairOverlapChecked(i, j, m)
					if err != nil {
						t.Fatalf("PairOverlapChecked(%d,%d,%d): %v", i, j, m, err)
					}
					if got != want {
						t.Fatalf("PairOverlap(%d,%d,%d) = %d, oracle %d", i, j, m, got, want)
					}
					total += want
				}
				if got := a.OM.At(i, j); got != total {
					t.Fatalf("OM(%d,%d) = %d, oracle %d", i, j, got, total)
				}
			}
		}
	})
}

// FuzzShardedAnalyze cross-checks sharded runs of the driver against
// the single pass on arbitrary traces: the in-memory trace and a v2
// re-encode as a byte image, both at an arbitrary shard count, and the
// v2 streaming reader must all be bit-identical to AnalyzeCtx — the
// fuzz form of the shard-boundary suite.
func FuzzShardedAnalyze(f *testing.F) {
	f.Add([]byte{3, 1, 40, 0}, int64(10), int64(2))
	// A grant spanning the whole horizon straddles every cut.
	straddle := append([]byte{2, 1, 200, 0}, fuzzEvent(0, 200, 0, 0, true)...)
	straddle = append(straddle, fuzzEvent(50, 100, 1, 0, false)...)
	f.Add(straddle, int64(25), int64(7))
	// Everything clustered in one window: most shards are empty.
	cluster := []byte{4, 1, 255, 15}
	for r := byte(0); r < 4; r++ {
		cluster = append(cluster, fuzzEvent(int64(r), 6, r, 0, r%2 == 0)...)
	}
	f.Add(cluster, int64(16), int64(8))
	// More shards than windows.
	f.Add(append([]byte{2, 1, 64, 0}, fuzzEvent(0, 8, 0, 0, false)...), int64(math.MaxInt64), int64(6))
	// Auto shard count, wide bitset.
	wide := []byte{95, 0, 200, 0}
	wide = append(wide, fuzzEvent(0, 150, 70, 0, true)...)
	wide = append(wide, fuzzEvent(10, 120, 90, 0, false)...)
	f.Add(wide, int64(25), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, ws int64, shards int64) {
		tr := decodeFuzzTrace(data)
		if tr == nil || tr.Validate() != nil {
			return
		}
		want, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			return // FuzzAnalyze owns rejection behavior
		}
		// 0 (auto) or 1..9 explicit shards.
		n := int(((shards % 10) + 10) % 10)

		got, err := AnalyzeTrace(context.Background(), tr, Windows{Size: ws}, n, nil)
		if err != nil {
			t.Fatalf("AnalyzeTrace(%d shards) rejected a valid trace: %v", n, err)
		}
		if diffs := DiffAnalyses(got, want); len(diffs) > 0 {
			t.Fatalf("sharded(%d) vs sweep:\n%s", n, strings.Join(diffs, "\n"))
		}

		var v2 bytes.Buffer
		if err := WriteBinaryV2(&v2, tr); err != nil {
			t.Fatalf("WriteBinaryV2: %v", err)
		}
		got, err = AnalyzeImage(context.Background(), v2.Bytes(), Windows{Size: ws}, n, nil)
		if err != nil {
			t.Fatalf("AnalyzeImage(v2, %d shards): %v", n, err)
		}
		if diffs := DiffAnalyses(got, want); len(diffs) > 0 {
			t.Fatalf("v2 sharded(%d) vs sweep:\n%s", n, strings.Join(diffs, "\n"))
		}

		got, err = AnalyzeReader(context.Background(), bytes.NewReader(v2.Bytes()), ws)
		if err != nil {
			t.Fatalf("AnalyzeReader(v2): %v", err)
		}
		if diffs := DiffAnalyses(got, want); len(diffs) > 0 {
			t.Fatalf("v2 stream vs sweep:\n%s", strings.Join(diffs, "\n"))
		}
	})
}

// FuzzTraceEncode hammers the binary decoder with arbitrary bytes and
// requires that anything it accepts survives a binary and a JSON
// round-trip bit-identically.
func FuzzTraceEncode(f *testing.F) {
	// A small valid trace, properly encoded.
	valid := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 32, Events: []Event{
		{Start: 0, Len: 4, Sender: 0, Receiver: 0, Critical: true},
		{Start: 8, Len: 2, Sender: 0, Receiver: 1},
	}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Regression: header declaring ~2^28 events with no payload — the
	// decoder used to preallocate the whole slice before reading.
	hdr := append([]byte("STBT"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(hdr[4:], 1)      // version
	binary.LittleEndian.PutUint32(hdr[8:], 2)      // receivers
	binary.LittleEndian.PutUint32(hdr[12:], 1)     // senders
	binary.LittleEndian.PutUint64(hdr[16:], 32)    // horizon
	binary.LittleEndian.PutUint64(hdr[24:], 1<<27) // events
	f.Add(hdr)
	f.Add([]byte("STBT"))
	f.Add([]byte{})
	// The same small trace in the v2 columnar container, so mutations
	// explore the block decoder too.
	var v2buf bytes.Buffer
	if err := WriteBinaryV2(&v2buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(v2buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadBinary returned an invalid trace: %v", err)
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, tr); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		back, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("binary round-trip decode: %v", err)
		}
		if !tracesEqual(tr, back) {
			t.Fatalf("binary round-trip changed the trace: %+v vs %+v", tr, back)
		}
		var js bytes.Buffer
		if err := WriteJSON(&js, tr); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		back, err = ReadJSON(&js)
		if err != nil {
			t.Fatalf("JSON round-trip decode: %v", err)
		}
		if !tracesEqual(tr, back) {
			t.Fatalf("JSON round-trip changed the trace: %+v vs %+v", tr, back)
		}
		var v2 bytes.Buffer
		if err := WriteBinaryV2(&v2, tr); err != nil {
			t.Fatalf("WriteBinaryV2: %v", err)
		}
		back, err = ReadBinary(&v2)
		if err != nil {
			t.Fatalf("v2 round-trip decode: %v", err)
		}
		if !tracesEqual(sortedCopy(tr), back) {
			t.Fatalf("v2 round-trip changed the trace: %+v vs %+v", tr, back)
		}
	})
}

// tracesEqual compares traces treating nil and empty event slices as
// equal (the encodings do not distinguish them).
func tracesEqual(a, b *Trace) bool {
	if a.NumReceivers != b.NumReceivers || a.NumSenders != b.NumSenders || a.Horizon != b.Horizon {
		return false
	}
	if len(a.Events) != len(b.Events) {
		return false
	}
	return len(a.Events) == 0 || reflect.DeepEqual(a.Events, b.Events)
}
