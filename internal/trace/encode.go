package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic   [4]byte "STBT"
//	version uint32  (1)
//	numReceivers, numSenders uint32
//	horizon uint64
//	numEvents uint64
//	events: start uint64, len uint64, sender uint32, receiver uint32, flags uint8
//
// All integers little-endian. The JSON form mirrors the Trace struct
// and is intended for human inspection and tooling interchange.

var binaryMagic = [4]byte{'S', 'T', 'B', 'T'}

const binaryVersion = 1

// WriteBinary serializes the trace in the compact binary format.
func WriteBinary(w io.Writer, tr *Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := []any{
		uint32(binaryVersion),
		uint32(tr.NumReceivers),
		uint32(tr.NumSenders),
		uint64(tr.Horizon),
		uint64(len(tr.Events)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var buf [25]byte
	for _, e := range tr.Events {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.Start))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.Len))
		binary.LittleEndian.PutUint32(buf[16:], uint32(e.Sender))
		binary.LittleEndian.PutUint32(buf[20:], uint32(e.Receiver))
		buf[24] = 0
		if e.Critical {
			buf[24] = 1
		}
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// binaryEventSize is the wire size of one event record.
const binaryEventSize = 25

// v1Batch is how many v1 records walkRecords decodes per yield.
const v1Batch = 4096

// binHeader is the parsed fixed-size header of a binary trace.
type binHeader struct {
	version      uint32
	numReceivers uint32
	numSenders   uint32
	horizon      int64
	numEvents    uint64
}

// readBinaryHeader parses and sanity-checks the magic and header of a
// binary trace. It is shared by ReadBinary, ReadHeader and the byte
// sources of the analysis, so all enforce the same bounds against
// corrupt or hostile headers.
func readBinaryHeader(br *bufio.Reader) (binHeader, error) {
	var hdr binHeader
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return hdr, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return hdr, errors.New("trace: bad magic, not a binary trace file")
	}
	var horizon uint64
	for _, p := range []any{&hdr.version, &hdr.numReceivers, &hdr.numSenders, &horizon, &hdr.numEvents} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return hdr, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	if hdr.version != binaryVersion && hdr.version != binaryVersionV2 {
		return hdr, fmt.Errorf("trace: unsupported version %d", hdr.version)
	}
	const maxCores = 1 << 20 // far beyond the STbus limit of 32
	if hdr.numReceivers > maxCores || hdr.numSenders > maxCores {
		return hdr, fmt.Errorf("trace: implausible core counts (%d receivers, %d senders)", hdr.numReceivers, hdr.numSenders)
	}
	hdr.horizon = int64(horizon)
	return hdr, nil
}

func (hdr binHeader) shape() shape {
	return shape{nT: int(hdr.numReceivers), nS: int(hdr.numSenders), horizon: hdr.horizon, events: hdr.numEvents}
}

// Header describes a binary trace file (either container version)
// without decoding its events — what a server needs to validate and
// route a large upload before committing to read it all.
type Header struct {
	Version      int
	NumReceivers int
	NumSenders   int
	Horizon      int64
	NumEvents    uint64
}

// ReadHeader parses and sanity-checks the fixed 32-byte header at the
// start of r.
func ReadHeader(r io.Reader) (Header, error) {
	hdr, err := readBinaryHeader(bufio.NewReaderSize(r, 64))
	if err != nil {
		return Header{}, err
	}
	return Header{
		Version:      int(hdr.version),
		NumReceivers: int(hdr.numReceivers),
		NumSenders:   int(hdr.numSenders),
		Horizon:      hdr.horizon,
		NumEvents:    hdr.numEvents,
	}, nil
}

// ReadBinary parses a trace written by WriteBinary or WriteBinaryV2.
// The input must end with the last event.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	hdr, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	const maxEvents = 1 << 28 // sanity bound against corrupt headers
	if hdr.numEvents > maxEvents {
		return nil, fmt.Errorf("trace: implausible event count %d", hdr.numEvents)
	}
	tr := &Trace{
		NumReceivers: int(hdr.numReceivers),
		NumSenders:   int(hdr.numSenders),
		Horizon:      hdr.horizon,
		// Grow the slice as events are read instead of trusting the
		// header: a corrupt count below maxEvents would otherwise
		// commit gigabytes before the first short read is noticed.
		Events: make([]Event, 0, min(hdr.numEvents, 1<<16)),
	}
	err = walkRecords(br, hdr, func(_ uint64, evs []Event) error {
		tr.Events = append(tr.Events, evs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// walkRecords reads the events after a binary header — fixed records
// for v1, columnar blocks for v2 — and then requires the input to end.
// It yields the events in order, in batches (a v2 block, or up to
// v1Batch v1 records) with the index of each batch's first event; a
// batch's storage is reused once yield returns. It is the one reader
// behind ReadBinary and AnalyzeReader; checking the events is the
// caller's.
func walkRecords(br *bufio.Reader, hdr binHeader, yield func(first uint64, evs []Event) error) error {
	if hdr.version == binaryVersionV2 {
		if err := walkV2Blocks(br, hdr.numEvents, yield); err != nil {
			return err
		}
	} else {
		var rec [binaryEventSize]byte
		batch := make([]Event, 0, min(hdr.numEvents, v1Batch))
		for i := uint64(0); i < hdr.numEvents; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("trace: reading event %d: %w", i, err)
			}
			batch = append(batch, decodeBinaryEvent(&rec))
			if len(batch) == cap(batch) || i+1 == hdr.numEvents {
				if err := yield(i+1-uint64(len(batch)), batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
	}
	switch _, err := br.ReadByte(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("trace: trailing bytes after the last event")
	default:
		return fmt.Errorf("trace: reading past the last event: %w", err)
	}
}

// decodeBinaryEvent parses one WriteBinary event record.
func decodeBinaryEvent(buf *[binaryEventSize]byte) Event {
	return Event{
		Start:    int64(binary.LittleEndian.Uint64(buf[0:])),
		Len:      int64(binary.LittleEndian.Uint64(buf[8:])),
		Sender:   int(binary.LittleEndian.Uint32(buf[16:])),
		Receiver: int(binary.LittleEndian.Uint32(buf[20:])),
		Critical: buf[24] != 0,
	}
}

// jsonTrace is the JSON wire form of a Trace.
type jsonTrace struct {
	NumReceivers int         `json:"num_receivers"`
	NumSenders   int         `json:"num_senders"`
	Horizon      int64       `json:"horizon"`
	Events       []jsonEvent `json:"events"`
}

type jsonEvent struct {
	Start    int64 `json:"start"`
	Len      int64 `json:"len"`
	Sender   int   `json:"sender"`
	Receiver int   `json:"receiver"`
	Critical bool  `json:"critical,omitempty"`
}

// WriteJSON serializes the trace as JSON.
func WriteJSON(w io.Writer, tr *Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	jt := jsonTrace{
		NumReceivers: tr.NumReceivers,
		NumSenders:   tr.NumSenders,
		Horizon:      tr.Horizon,
		Events:       make([]jsonEvent, len(tr.Events)),
	}
	for i, e := range tr.Events {
		jt.Events[i] = jsonEvent(e)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&jt)
}

// ReadJSON parses a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	tr := &Trace{
		NumReceivers: jt.NumReceivers,
		NumSenders:   jt.NumSenders,
		Horizon:      jt.Horizon,
		Events:       make([]Event, len(jt.Events)),
	}
	for i, e := range jt.Events {
		tr.Events[i] = Event(e)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
