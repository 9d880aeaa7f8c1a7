package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostClock samples the machine's CPU accounting, so a run can report
// how much of the CPU time the machine wanted the hypervisor withheld
// (steal) and how much CPU the process itself used.
type hostClock struct {
	// steal and busy are /proc/stat jiffies over all CPUs: time a CPU
	// was withheld while it had work, and time it ran work (user, nice,
	// system, irq and softirq; idle and iowait count in neither).
	steal, busy int64
	procCPU     time.Duration
}

func readHostClock() hostClock {
	var c hostClock
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseInt(f, 10, 64)
			switch i {
			case 0, 1, 2, 5, 6:
				c.busy += v
			case 7:
				c.steal = v
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// since returns the steal share of the CPU time the machine wanted
// (steal over steal plus busy) and the process CPU time between c0 and
// c. Idle time is left out: a CPU that waits for work loses nothing to
// the hypervisor, so a share of all time would read lower the less
// busy the benchmark keeps the machine.
func (c hostClock) since(c0 hostClock) (steal float64, cpu time.Duration) {
	st := c.steal - c0.steal
	if d := st + c.busy - c0.busy; d > 0 {
		steal = float64(st) / float64(d)
	}
	return steal, c.procCPU - c0.procCPU
}

// Steal comes in episodes of seconds to minutes on a shared virtual
// machine, and wall-clock latencies rise with it (on 2 vCPUs the
// service-repeat median by half, and its tail by more, with a fifth of
// the machine's time stolen). The measured phase therefore runs in
// half-second slices and takes its timings from the least disturbed
// ones.
const (
	sliceLen   = 500 * time.Millisecond
	quietSteal = 0.03
)

// quietClock times a measured phase in slices of sliceLen and records
// each slice's steal share. The phase goes on until enough slices to
// fill the wanted seconds were quiet (steal share at most quietSteal)
// or limit has passed; the timings then come from that many slices
// with the least steal.
type quietClock struct {
	start time.Time
	want  int
	limit time.Duration

	mu     sync.Mutex
	quiet  int
	slices []quietSlice

	stop chan struct{}
	done chan struct{}
}

type quietSlice struct {
	from, to time.Duration
	steal    float64
	full     bool // a whole sliceLen, not the remainder when the phase stopped
}

func startQuietClock(seconds float64, limit time.Duration) *quietClock {
	want := max(1, int(math.Round(seconds*float64(time.Second)/float64(sliceLen))))
	q := &quietClock{start: time.Now(), want: want, limit: limit,
		stop: make(chan struct{}), done: make(chan struct{})}
	go q.run()
	return q
}

func (q *quietClock) run() {
	defer close(q.done)
	t := time.NewTicker(sliceLen)
	defer t.Stop()
	from, c0 := time.Duration(0), readHostClock()
	for {
		select {
		case <-q.stop:
			q.closeSlice(from, c0, false)
			return
		case <-t.C:
			from, c0 = q.closeSlice(from, c0, true)
		}
	}
}

// closeSlice ends the slice begun at from and returns the next one's
// start.
func (q *quietClock) closeSlice(from time.Duration, c0 hostClock, full bool) (time.Duration, hostClock) {
	c := readHostClock()
	to := time.Since(q.start)
	steal, _ := c.since(c0)
	q.mu.Lock()
	q.slices = append(q.slices, quietSlice{from: from, to: to, steal: steal, full: full})
	if full && steal <= quietSteal {
		q.quiet++
	}
	q.mu.Unlock()
	return to, c
}

// more reports whether the phase should go on.
func (q *quietClock) more() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.quiet < q.want && time.Since(q.start) < q.limit
}

// window is the part of a finished phase whose samples count.
type window struct {
	slices []quietSlice // the counted slices
	length time.Duration
	steal  float64 // steal share over the counted slices
	wall   time.Duration
}

// finish stops the clock and returns the counted window: the want full
// slices with the least steal, or every slice when the phase had fewer.
// On a quiet host those are the first want slices; on a host busy
// throughout, the least disturbed ones.
func (q *quietClock) finish() window {
	close(q.stop)
	<-q.done
	w := window{wall: time.Since(q.start)}
	var full []quietSlice
	for _, s := range q.slices {
		if s.full {
			full = append(full, s)
		}
	}
	if len(full) < q.want {
		w.slices = q.slices
	} else {
		sort.SliceStable(full, func(i, j int) bool { return full[i].steal < full[j].steal })
		w.slices = full[:q.want]
	}
	var stealTime float64
	for _, s := range w.slices {
		w.length += s.to - s.from
		stealTime += s.steal * float64(s.to-s.from)
	}
	if w.length > 0 {
		w.steal = stealTime / float64(w.length)
	}
	return w
}

// counts reports whether a sample starting at offset t counts.
func (w window) counts(t time.Duration) bool {
	for _, s := range w.slices {
		if t >= s.from && t < s.to {
			return true
		}
	}
	return false
}
