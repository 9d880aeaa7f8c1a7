package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format v2 — compact columnar blocks.
//
// The 32-byte file header is shared with v1 (magic "STBT", version 2,
// numReceivers, numSenders, horizon, numEvents); the event stream is a
// sequence of blocks, each holding up to 65536 start-ordered events:
//
//	block header (24 bytes, little-endian):
//	  count      uint32  events in this block (1..65536)
//	  payloadLen uint32  bytes of payload that follow
//	  firstStart uint64  start cycle of the block's first event
//	  maxEnd     uint64  max(start+len) over the block's events
//	payload (column-grouped):
//	  count-1 uvarint  start deltas (event k starts at start[k-1]+delta)
//	  count   uvarint  lengths
//	  count   uvarint  senders
//	  count   uvarint  receivers
//	  ⌈count/8⌉ bytes  critical bitmap (LSB-first)
//
// Start deltas are unsigned, so a valid v2 stream is start-ordered by
// construction — the property the sweep kernel and the sharded driver
// need. firstStart/maxEnd summarize the block's cycle range, which is
// what lets the sharded reader skip blocks that cannot intersect a
// shard; every block is still fully decoded by the shard owning its
// firstStart, which verifies maxEnd against the decoded events, so a
// corrupt summary is an error rather than silently dropped work.
//
// On the benchmark workloads (bursty starts, short grants, few
// senders) the payload averages ≈4–5 bytes/event versus 25 in v1.

const (
	binaryVersionV2 = 2

	// v2BlockMaxEvents caps one block; 65536 events keeps the decode
	// working set near 256 KiB while leaving block headers negligible.
	v2BlockMaxEvents = 1 << 16

	// v2BlockHeaderSize is the fixed block header size.
	v2BlockHeaderSize = 24

	// v2MaxPayload bounds a declared payload length against hostile
	// headers: 10-byte worst-case varints for all four columns plus the
	// bitmap stays well under it.
	v2MaxPayload = 41*v2BlockMaxEvents + 8
)

// v2BlockHeader is one parsed block header.
type v2BlockHeader struct {
	count      uint32
	payloadLen uint32
	firstStart int64
	maxEnd     int64
}

func parseV2BlockHeader(buf *[v2BlockHeaderSize]byte) v2BlockHeader {
	return v2BlockHeader{
		count:      binary.LittleEndian.Uint32(buf[0:]),
		payloadLen: binary.LittleEndian.Uint32(buf[4:]),
		firstStart: int64(binary.LittleEndian.Uint64(buf[8:])),
		maxEnd:     int64(binary.LittleEndian.Uint64(buf[16:])),
	}
}

func (bh *v2BlockHeader) validate(remaining uint64) error {
	if bh.count == 0 || bh.count > v2BlockMaxEvents {
		return fmt.Errorf("trace: v2 block count %d outside 1..%d", bh.count, v2BlockMaxEvents)
	}
	if uint64(bh.count) > remaining {
		return fmt.Errorf("trace: v2 block holds %d events but only %d remain", bh.count, remaining)
	}
	if bh.payloadLen > v2MaxPayload {
		return fmt.Errorf("trace: v2 block payload %d exceeds limit %d", bh.payloadLen, v2MaxPayload)
	}
	if bh.firstStart < 0 || bh.maxEnd <= bh.firstStart {
		return fmt.Errorf("trace: v2 block cycle range [%d,%d) invalid", bh.firstStart, bh.maxEnd)
	}
	return nil
}

// v2DecodeBlock decodes one block payload into dst's storage (grown
// when short) and returns the block's events in order. It performs the
// structural checks — varints in bounds, payload fully consumed, first
// start matching the header, nonnegative spans, and the decoded max end
// equal to the header's maxEnd (the summary the cut planner works
// from). Semantic validation (receiver ranges, horizon) is the
// caller's, matching the v1 paths.
func v2DecodeBlock(bh v2BlockHeader, payload []byte, dst []Event) ([]Event, error) {
	n := int(bh.count)
	if int(bh.payloadLen) != len(payload) {
		return nil, fmt.Errorf("trace: v2 block payload: got %d bytes, header says %d", len(payload), bh.payloadLen)
	}
	if cap(dst) < n {
		dst = make([]Event, n)
	}
	evs := dst[:n]

	pos := 0
	readUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(payload[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("trace: v2 block: truncated or oversized varint at payload offset %d", pos)
		}
		pos += k
		return v, nil
	}
	evs[0].Start = bh.firstStart
	for k := 1; k < n; k++ {
		d, err := readUvarint()
		if err != nil {
			return nil, err
		}
		s := evs[k-1].Start + int64(d)
		if s < evs[k-1].Start { // overflow
			return nil, fmt.Errorf("trace: v2 block: start delta overflows at event %d", k)
		}
		evs[k].Start = s
	}
	for k := 0; k < n; k++ {
		v, err := readUvarint()
		if err != nil {
			return nil, err
		}
		evs[k].Len = int64(v)
		if evs[k].Len < 0 {
			return nil, fmt.Errorf("trace: v2 block: length overflows at event %d", k)
		}
	}
	for k := 0; k < n; k++ {
		v, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<31 {
			return nil, fmt.Errorf("trace: v2 block: implausible sender %d", v)
		}
		evs[k].Sender = int(v)
	}
	for k := 0; k < n; k++ {
		v, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<31 {
			return nil, fmt.Errorf("trace: v2 block: implausible receiver %d", v)
		}
		evs[k].Receiver = int(v)
	}
	bitmapLen := (n + 7) / 8
	if len(payload)-pos != bitmapLen {
		return nil, fmt.Errorf("trace: v2 block: %d payload bytes after columns, want %d bitmap bytes", len(payload)-pos, bitmapLen)
	}
	bitmap := payload[pos:]

	maxEnd := int64(0)
	for k := range evs {
		e := &evs[k]
		end := e.Start + e.Len
		if end < e.Start {
			return nil, fmt.Errorf("trace: v2 block: event %d span overflows", k)
		}
		maxEnd = max(maxEnd, end)
		e.Critical = bitmap[k/8]&(1<<(k%8)) != 0
	}
	if maxEnd != bh.maxEnd {
		return nil, fmt.Errorf("trace: v2 block: header maxEnd %d does not match decoded %d", bh.maxEnd, maxEnd)
	}
	return evs, nil
}

// V2Writer streams a trace into the v2 columnar format. The event
// count must be known up-front (it lives in the file header); Add
// enforces nondecreasing start cycles and Close fails if the count
// does not match. The writer buffers at most one block.
type V2Writer struct {
	bw        *bufio.Writer
	remaining uint64
	lastStart int64
	events    []Event // pending block
	hdrBuf    [v2BlockHeaderSize]byte
	payload   []byte
	err       error
}

// NewV2Writer writes the v2 file header and returns a streaming
// writer. numEvents is the exact number of Add calls to come.
func NewV2Writer(w io.Writer, numReceivers, numSenders int, horizon int64, numEvents uint64) (*V2Writer, error) {
	if numReceivers <= 0 || numSenders <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("trace: v2 writer: invalid shape (%d receivers, %d senders, horizon %d)", numReceivers, numSenders, horizon)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return nil, err
	}
	hdr := []any{
		uint32(binaryVersionV2),
		uint32(numReceivers),
		uint32(numSenders),
		uint64(horizon),
		numEvents,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	return &V2Writer{bw: bw, remaining: numEvents, lastStart: -1}, nil
}

// Add appends one event; events must arrive in nondecreasing start
// order (sort with Trace sorting or feed simulator output directly).
func (w *V2Writer) Add(e Event) error {
	if w.err != nil {
		return w.err
	}
	if w.remaining == 0 {
		return w.fail(fmt.Errorf("trace: v2 writer: more events than the declared count"))
	}
	if e.Start < w.lastStart {
		return w.fail(fmt.Errorf("trace: v2 writer: event starts at %d, before the previous start %d — v2 requires start-ordered events", e.Start, w.lastStart))
	}
	if e.Start < 0 || e.Len <= 0 || e.Sender < 0 || e.Receiver < 0 {
		return w.fail(fmt.Errorf("trace: v2 writer: invalid event [%d,+%d) sender %d receiver %d", e.Start, e.Len, e.Sender, e.Receiver))
	}
	w.lastStart = e.Start
	w.remaining--
	w.events = append(w.events, e)
	if len(w.events) == v2BlockMaxEvents {
		return w.flushBlock()
	}
	return nil
}

func (w *V2Writer) fail(err error) error {
	w.err = err
	return err
}

func (w *V2Writer) flushBlock() error {
	evs := w.events
	n := len(evs)
	if n == 0 {
		return nil
	}
	p := w.payload[:0]
	for k := 1; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Start-evs[k-1].Start))
	}
	maxEnd := int64(0)
	for k := 0; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Len))
		if end := evs[k].End(); end > maxEnd {
			maxEnd = end
		}
	}
	for k := 0; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Sender))
	}
	for k := 0; k < n; k++ {
		p = binary.AppendUvarint(p, uint64(evs[k].Receiver))
	}
	bitmapOff := len(p)
	for k := 0; k < (n+7)/8; k++ {
		p = append(p, 0)
	}
	for k := 0; k < n; k++ {
		if evs[k].Critical {
			p[bitmapOff+k/8] |= 1 << (k % 8)
		}
	}
	w.payload = p

	binary.LittleEndian.PutUint32(w.hdrBuf[0:], uint32(n))
	binary.LittleEndian.PutUint32(w.hdrBuf[4:], uint32(len(p)))
	binary.LittleEndian.PutUint64(w.hdrBuf[8:], uint64(evs[0].Start))
	binary.LittleEndian.PutUint64(w.hdrBuf[16:], uint64(maxEnd))
	if _, err := w.bw.Write(w.hdrBuf[:]); err != nil {
		return w.fail(err)
	}
	if _, err := w.bw.Write(p); err != nil {
		return w.fail(err)
	}
	w.events = w.events[:0]
	return nil
}

// Close flushes the final block and the underlying buffer. It fails if
// fewer events were added than the header declared.
func (w *V2Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.remaining != 0 {
		return w.fail(fmt.Errorf("trace: v2 writer: %d declared events were never added", w.remaining))
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

// WriteBinaryV2 serializes the trace in the v2 columnar format. Events
// are sorted by start cycle first (the format requires it), so a
// v1→v2 re-encode preserves the logical trace — and therefore its
// analysis fingerprint — but not necessarily the slice order.
func WriteBinaryV2(w io.Writer, tr *Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	events := sortEventsByStart(tr.Events)
	vw, err := NewV2Writer(w, tr.NumReceivers, tr.NumSenders, tr.Horizon, uint64(len(events)))
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := vw.Add(e); err != nil {
			return err
		}
	}
	return vw.Close()
}

// walkV2Blocks reads numEvents events of v2 blocks from br, yielding
// each block's events with the index of its first: the v2 half of
// walkRecords.
func walkV2Blocks(br *bufio.Reader, numEvents uint64, yield func(first uint64, evs []Event) error) error {
	var hb [v2BlockHeaderSize]byte
	payload := make([]byte, 0, 1<<16)
	var evs []Event
	var done uint64
	lastStart := int64(-1)
	for done < numEvents {
		if _, err := io.ReadFull(br, hb[:]); err != nil {
			return fmt.Errorf("trace: reading v2 block header at event %d: %w", done, err)
		}
		bh := parseV2BlockHeader(&hb)
		if err := bh.validate(numEvents - done); err != nil {
			return err
		}
		if bh.firstStart < lastStart {
			return fmt.Errorf("trace: v2 block at event %d starts at %d, before the previous start %d", done, bh.firstStart, lastStart)
		}
		payload = growTo(payload, int(bh.payloadLen))
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("trace: reading v2 block payload at event %d: %w", done, err)
		}
		var err error
		if evs, err = v2DecodeBlock(bh, payload, evs); err != nil {
			return err
		}
		if err := yield(done, evs); err != nil {
			return err
		}
		lastStart = evs[len(evs)-1].Start
		done += uint64(bh.count)
	}
	return nil
}

// growTo returns buf resized to n bytes, reallocating if its capacity
// is short (payloadLen is bounded by v2MaxPayload before this runs).
func growTo(buf []byte, n int) []byte {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]byte, n)
}

// parseV2Index walks the block headers of a v2 image (payloads are
// skipped, so this is O(blocks), not O(events)) and returns the blocks
// the driver plans and reads with. body is the image after the 32-byte
// file header; it must end with the last block, and every block must lie
// inside the horizon (a block past it would be read by no shard).
func parseV2Index(body []byte, sh shape) ([]block, error) {
	var idx []block
	pos := 0
	var done uint64
	lastFirst := int64(-1)
	for done < sh.events {
		if len(body)-pos < v2BlockHeaderSize {
			return nil, fmt.Errorf("trace: v2 image truncated at block header (event %d)", done)
		}
		bh := parseV2BlockHeader((*[v2BlockHeaderSize]byte)(body[pos:]))
		if err := bh.validate(sh.events - done); err != nil {
			return nil, err
		}
		if bh.firstStart < lastFirst {
			return nil, fmt.Errorf("trace: v2 block at event %d starts at %d, before the previous block's first start %d", done, bh.firstStart, lastFirst)
		}
		if bh.maxEnd > sh.horizon {
			return nil, fmt.Errorf("trace: v2 block at event %d ends at cycle %d, past the horizon %d", done, bh.maxEnd, sh.horizon)
		}
		lastFirst = bh.firstStart
		pos += v2BlockHeaderSize
		if len(body)-pos < int(bh.payloadLen) {
			return nil, fmt.Errorf("trace: v2 image truncated at block payload (event %d)", done)
		}
		idx = append(idx, block{v2BlockHeader: bh, first: done, off: pos})
		pos += int(bh.payloadLen)
		done += uint64(bh.count)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last v2 block", len(body)-pos)
	}
	return idx, nil
}
