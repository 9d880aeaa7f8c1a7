package trace

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
)

// The sources the analysis driver reads. A source says only how it
// lists its events and, when it can be cut, where its cuts may fall:
//
//   - indexed: an in-memory trace (start-sorted first) or the body of a
//     v1 image, both with random access to event k;
//   - v2Image: the block stream of a v2 image;
//   - stream: a binary trace read once, front to back, in either
//     version. A stream cannot be cut, so it always runs as one shard.

// binaryHeaderSize is the fixed v1/v2 file header: magic + five fields.
const binaryHeaderSize = 4 + 4 + 4 + 4 + 8 + 8

// indexStride is the number of events per block when the driver indexes
// a source with no blocks of its own (indexed sources).
const indexStride = 1024

// block is a run of consecutive source events, summarized like a v2
// block header (count, firstStart, maxEnd). The driver hands each shard
// the blocks whose [firstStart, maxEnd) meets its cycle range.
type block struct {
	v2BlockHeader
	first uint64 // source index of the block's first event
	off   int    // v2 images: payload offset
}

func (b *block) end() uint64 { return b.first + uint64(b.count) }

// source is what the driver reads: the header every event is checked
// against, and list, which feeds f the events of blocks bs — every
// event when bs is nil — in source order, each with its index in the
// source.
type source interface {
	shape() shape
	list(bs []block, f *feed) error
}

// cuttable is a source the driver can partition into shards. index
// returns its blocks — every block lying inside [0, horizon) — and
// cutStart the start cycle of the cut candidate at or before event te.
type cuttable interface {
	source
	index() ([]block, error)
	cutStart(idx []block, te uint64) int64
}

// indexed is a source with random access to event k: an in-memory
// trace (start-sorted) or, when events is nil, the fixed-stride body of
// a v1 image (the bytes after the file header).
type indexed struct {
	sh     shape
	events []Event
	body   []byte
}

func (s indexed) shape() shape { return s.sh }

func (s indexed) at(k uint64) Event {
	if s.events != nil {
		return s.events[k]
	}
	return decodeBinaryEvent((*[binaryEventSize]byte)(s.body[k*binaryEventSize:]))
}

func (s indexed) list(bs []block, f *feed) error {
	if bs == nil {
		return s.span(0, s.sh.events, f)
	}
	for _, b := range bs {
		if err := s.span(b.first, b.end(), f); err != nil {
			return err
		}
	}
	return nil
}

// span feeds events [lo, hi): in place for an in-memory trace, and
// decoded in batches for a v1 image.
func (s indexed) span(lo, hi uint64, f *feed) error {
	if s.events != nil {
		return f.put(lo, s.events[lo:hi])
	}
	var batch [256]Event
	for k := lo; k < hi; {
		n := min(hi-k, uint64(len(batch)))
		for j := range n {
			batch[j] = s.at(k + j)
		}
		if err := f.put(k, batch[:n]); err != nil {
			return err
		}
		k += n
	}
	return nil
}

// index cuts the source into blocks of indexStride events. Its one
// pass checks every event, in order, so the blocks are start-ordered
// and inside the horizon, and a bad or unsorted v1 image is rejected
// before any shard runs.
func (s indexed) index() ([]block, error) {
	var idx []block
	last := int64(0)
	for k := uint64(0); k < s.sh.events; k++ {
		e := s.at(k)
		if !s.sh.fits(&e) || e.Start < last {
			return nil, reject(&s.sh, last, k, &e)
		}
		last = e.Start
		if k%indexStride == 0 {
			idx = append(idx, block{first: k, v2BlockHeader: v2BlockHeader{firstStart: e.Start}})
		}
		b := &idx[len(idx)-1]
		b.count++
		b.maxEnd = max(b.maxEnd, e.End())
	}
	return idx, nil
}

func (s indexed) cutStart(_ []block, te uint64) int64 { return s.at(te).Start }

// v2Image is the block stream of a v2 image (the bytes after the file
// header).
type v2Image struct {
	body []byte
	sh   shape
}

func (im v2Image) shape() shape { return im.sh }

func (im v2Image) list(bs []block, f *feed) error {
	if bs == nil {
		var err error
		if bs, err = im.index(); err != nil {
			return err
		}
	}
	var evs []Event
	for _, b := range bs {
		var err error
		if evs, err = v2DecodeBlock(b.v2BlockHeader, im.body[b.off:b.off+int(b.payloadLen)], evs); err != nil {
			return err
		}
		if err := f.put(b.first, evs); err != nil {
			return err
		}
	}
	return nil
}

func (im v2Image) index() ([]block, error) { return parseV2Index(im.body, im.sh) }

// cutStart for a v2 image is the first start of the block holding
// event te: v2 cuts fall at block granularity.
func (im v2Image) cutStart(idx []block, te uint64) int64 {
	bi := sort.Search(len(idx), func(i int) bool { return idx[i].first > te }) - 1
	return idx[bi].firstStart
}

// stream is a binary trace read once, front to back.
type stream struct {
	br  *bufio.Reader
	hdr binHeader
}

func (s stream) shape() shape { return s.hdr.shape() }

func (s stream) list(_ []block, f *feed) error { return walkRecords(s.br, s.hdr, f.put) }

// AnalyzeReader computes the fixed-window analysis directly from a
// binary trace stream (v1 or v2) in one pass, without materializing the
// event slice: each record updates the sweep frontier and is dropped.
// Peak memory is the output tables plus O(R) frontier state —
// independent of the event count — which is what makes
// multi-hundred-million-event traces analyzable at all.
//
// The stream's events must be ordered by nondecreasing start cycle
// (cycle-accurate simulators emit them that way); an out-of-order
// record is reported as ErrUnsorted, in which case the caller should
// fall back to ReadBinary + AnalyzeTrace.
func AnalyzeReader(ctx context.Context, r io.Reader, ws int64) (*Analysis, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	return analyze(ctx, stream{br: br, hdr: hdr}, Windows{Size: ws}, 1, nil)
}

// AnalyzeImage analyzes a binary trace image (v1 or v2, header
// included) without materializing the event slice, on the given window
// plan and shard count (≤ 0: one per CPU core). The events must be
// start-ordered (ErrUnsorted otherwise), and the image must end with
// its last event. stats may be nil.
func AnalyzeImage(ctx context.Context, data []byte, win Windows, shards int, stats *ShardStats) (*Analysis, error) {
	hdr, err := readBinaryHeader(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, err
	}
	body := data[binaryHeaderSize:]
	sh := hdr.shape()
	var src source = v2Image{body: body, sh: sh}
	if hdr.version != binaryVersionV2 {
		if want := hdr.numEvents * binaryEventSize; hdr.numEvents > 1<<57 || uint64(len(body)) != want {
			return nil, fmt.Errorf("trace: v1 image is %d event bytes, header declares %d events (%d bytes)", len(body), hdr.numEvents, want)
		}
		src = indexed{sh: sh, body: body}
	}
	return analyze(ctx, src, win, shards, stats)
}

// AnalyzeFileSharded memory-maps a binary trace file (v1 or v2) and
// runs AnalyzeImage with fixed windows of ws cycles over the mapping:
// the out-of-core entry point, with peak heap bounded by the output
// tables plus per-shard frontier state regardless of the file size. On
// platforms without mmap the file is read into memory instead.
func AnalyzeFileSharded(ctx context.Context, path string, ws int64, shards int, stats *ShardStats) (*Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < binaryHeaderSize {
		return nil, fmt.Errorf("trace: %s: %d bytes is smaller than a trace header", path, fi.Size())
	}
	data, unmap, err := mapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	defer unmap() //nolint:errcheck // read-only mapping
	return AnalyzeImage(ctx, data, Windows{Size: ws}, shards, stats)
}
