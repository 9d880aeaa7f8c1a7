// Package trace defines the functional traffic trace produced by
// cycle-accurate simulation and the window-based analysis the design
// methodology consumes (paper Sections 3.2 and 5).
//
// A trace records, for one direction of the interconnect (either
// initiator→target or target→initiator), every bus transfer as a cycle
// interval attributed to the *receiver* of the data. The analysis
// divides the simulation into fixed-size windows and derives, per
// window, the communication load of each receiver (comm[i][m]), the
// pairwise temporal overlap between receiver streams (wo[i][j][m]),
// and the aggregate overlap matrix OM (paper Eq. 1).
package trace

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ds"
)

// Event is one bus transfer: Len consecutive data cycles starting at
// Start, flowing from Sender to Receiver. Critical marks transfers
// belonging to a real-time stream.
type Event struct {
	Start    int64
	Len      int64
	Sender   int
	Receiver int
	Critical bool
}

// End returns the first cycle after the transfer.
func (e Event) End() int64 { return e.Start + e.Len }

// Trace is the functional traffic of one interconnect direction.
type Trace struct {
	// NumReceivers is the number of cores receiving data in this
	// direction (targets for the initiator→target crossbar, initiators
	// for the target→initiator crossbar).
	NumReceivers int
	// NumSenders is the number of cores driving data in this direction.
	NumSenders int
	// Horizon is the total simulated length in cycles. Events must lie
	// inside [0, Horizon).
	Horizon int64
	// Events holds the transfers, in no particular order.
	Events []Event
}

// Validate checks structural invariants of the trace.
func (tr *Trace) Validate() error {
	sh := tr.shape()
	if err := sh.validate(); err != nil {
		return err
	}
	for i := range tr.Events {
		if e := &tr.Events[i]; !sh.fits(e) {
			return sh.eventError(uint64(i), e)
		}
	}
	return nil
}

func (tr *Trace) shape() shape {
	return shape{nT: tr.NumReceivers, nS: tr.NumSenders, horizon: tr.Horizon, events: uint64(len(tr.Events))}
}

// shape is a trace's header: the receiver and sender counts, the
// horizon and the event count, as read from a binary header or taken
// from an in-memory trace.
type shape struct {
	nT, nS  int
	horizon int64
	events  uint64
}

// validate checks the header fields every trace must satisfy.
func (sh shape) validate() error {
	if sh.nT <= 0 {
		return errors.New("trace: NumReceivers must be positive")
	}
	if sh.nS <= 0 {
		return errors.New("trace: NumSenders must be positive")
	}
	if sh.horizon <= 0 {
		return errors.New("trace: Horizon must be positive")
	}
	return nil
}

// fits reports whether an event lies inside the header's shape. It is
// one expression, the unsigned compares folding the nonnegativity
// checks, so that it inlines into the per-event loops; eventError names
// the failure.
func (sh *shape) fits(e *Event) bool {
	// Bound Len against the remaining horizon instead of comparing
	// e.End() to it: Start+Len can overflow int64 (wrapping End()
	// negative), and a wrapped End passes an `End > Horizon` check.
	return uint(e.Receiver) < uint(sh.nT) && uint(e.Sender) < uint(sh.nS) && e.Len > 0 &&
		uint64(e.Start) < uint64(sh.horizon) && e.Len <= sh.horizon-e.Start
}

// eventError describes why event i does not fit the header.
func (sh *shape) eventError(i uint64, e *Event) error {
	switch {
	case e.Receiver < 0 || e.Receiver >= sh.nT:
		return fmt.Errorf("trace: event %d receiver %d out of range [0,%d)", i, e.Receiver, sh.nT)
	case e.Sender < 0 || e.Sender >= sh.nS:
		return fmt.Errorf("trace: event %d sender %d out of range [0,%d)", i, e.Sender, sh.nS)
	case e.Len <= 0:
		return fmt.Errorf("trace: event %d has non-positive length %d", i, e.Len)
	default:
		return fmt.Errorf("trace: event %d [%d,+%d) outside horizon %d", i, e.Start, e.Len, sh.horizon)
	}
}

// busyByReceiver returns, for each receiver, the set of cycles in which
// it receives data, plus the same restricted to critical transfers.
// On a full crossbar a receiver's transfers are serialized on its own
// bus, so the per-receiver events never self-overlap; the interval-set
// merge makes the computation robust anyway.
func (tr *Trace) busyByReceiver() (busy, critical []*ds.IntervalSet) {
	busy = make([]*ds.IntervalSet, tr.NumReceivers)
	critical = make([]*ds.IntervalSet, tr.NumReceivers)
	for i := range busy {
		busy[i] = ds.NewIntervalSet()
		critical[i] = ds.NewIntervalSet()
	}
	events := make([]Event, len(tr.Events))
	copy(events, tr.Events)
	sort.Slice(events, func(a, b int) bool {
		if events[a].Start != events[b].Start {
			return events[a].Start < events[b].Start
		}
		return events[a].Receiver < events[b].Receiver
	})
	for _, e := range events {
		iv := ds.Interval{Start: e.Start, End: e.End()}
		busy[e.Receiver].Add(iv)
		if e.Critical {
			critical[e.Receiver].Add(iv)
		}
	}
	return busy, critical
}

// TotalCycles returns the summed transfer cycles per receiver over the
// whole trace (the "average traffic" view used by baseline designers).
func (tr *Trace) TotalCycles() []int64 {
	total := make([]int64, tr.NumReceivers)
	for _, e := range tr.Events {
		total[e.Receiver] += e.Len
	}
	return total
}

// BurstStats describes the contiguous-burst structure of the trace:
// a burst is a maximal run of back-to-back busy cycles of one receiver
// (paper Section 7.2 sizes the analysis window against this).
type BurstStats struct {
	Count   int
	MeanLen float64
	MaxLen  int64
}

// Bursts computes burst statistics over all receivers.
func (tr *Trace) Bursts() BurstStats {
	busy, _ := tr.busyByReceiver()
	var st BurstStats
	for _, set := range busy {
		for _, iv := range set.Intervals() {
			st.Count++
			l := iv.Len()
			st.MeanLen += float64(l)
			if l > st.MaxLen {
				st.MaxLen = l
			}
		}
	}
	if st.Count > 0 {
		st.MeanLen /= float64(st.Count)
	}
	return st
}
