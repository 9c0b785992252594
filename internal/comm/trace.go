package comm

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// TraceEvent records one message for post-hoc analysis of a collective's
// communication schedule: who sent what to whom, when, and how large it
// was. Tracing is how the micro-benchmarks' per-stage payload growth
// (Figure 2) can be inspected directly. On the simulator the timestamps
// are virtual α–β seconds; on the real backends (goroutine, TCP) they are
// measured wall-clock seconds since World.Run started, which is what the
// adapt-layer link calibrator fits genuine machine constants from.
type TraceEvent struct {
	// Src and Dst are ranks.
	Src, Dst int
	// Tag is the message tag.
	Tag int
	// Bytes is the modeled payload size.
	Bytes int
	// SendTime and Arrival are times in seconds: virtual on the
	// simulator, measured wall-clock on real transports.
	SendTime, Arrival float64
	// NICFactor is the total egress bandwidth-sharing multiplier the
	// message's bandwidth term was priced with: the product of the
	// serialization factors of every hierarchy level the message escaped
	// (1 for intra-node messages and for worlds without Serial caps; on a
	// simnet.TwoLevel world exactly the per-node NIC factor, hence the
	// name). Real transports record 1: their contention is physical, not
	// modeled. See simnet.Hierarchy.SerialFactor.
	NICFactor float64
	// Level is the hierarchy level the message was priced at — the
	// innermost level shared by sender and receiver (0 for node-local
	// messages and for flat worlds). See simnet.Hierarchy.SharedLevel.
	Level int
}

// traceShard holds one source rank's recorded sends. Sharding by source is
// what makes the tracer race-free *and* contention-free under truly
// concurrent ranks: a rank's Send only ever locks its own shard, so the
// append path never serializes independent ranks against each other, and a
// rank reading its own history (EventsOf) contends with nobody else.
type traceShard struct {
	mu     sync.Mutex
	events []TraceEvent
	gen    int // reset generation, bumped by Reset
}

// Tracer collects TraceEvents from a world, sharded by source rank. Safe
// for concurrent use from all ranks, including under the truly concurrent
// goroutine and TCP backends.
type Tracer struct {
	shards  []traceShard
	perRank atomic.Int64 // max recorded events per source rank; 0 = unlimited
}

// EnableTrace attaches a tracer to the world; every subsequent Send is
// recorded until DisableTrace. Returns the tracer.
func (w *World) EnableTrace() *Tracer {
	t := &Tracer{shards: make([]traceShard, w.p)}
	w.tracer.Store(t)
	return t
}

// DisableTrace detaches the tracer.
func (w *World) DisableTrace() {
	w.tracer.Store((*Tracer)(nil))
}

// LimitPerRank caps how many events the tracer records per *source* rank;
// once a rank has limit recorded sends, its further sends are dropped.
// A per-rank (rather than global) cap keeps long-running traced worlds —
// e.g. a training loop with adaptation enabled — at bounded memory while
// staying deterministic: whether a given rank's k-th send is recorded
// depends only on k, never on cross-rank goroutine interleaving, so
// consumers reading their own rank's events (Tracer.EventsOf) see a
// reproducible prefix. The cap applies against the events already
// recorded, whenever they were recorded; limit <= 0 removes the cap.
func (t *Tracer) LimitPerRank(limit int) {
	if limit < 0 {
		limit = 0
	}
	t.perRank.Store(int64(limit))
}

func (t *Tracer) record(e TraceEvent) {
	if e.Src < 0 || e.Src >= len(t.shards) {
		return
	}
	s := &t.shards[e.Src]
	limit := int(t.perRank.Load())
	s.mu.Lock()
	if limit <= 0 || len(s.events) < limit {
		s.events = append(s.events, e)
	}
	s.mu.Unlock()
}

// Events returns the recorded events sorted by send time (ties by src).
func (t *Tracer) Events() []TraceEvent {
	var out []TraceEvent
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SendTime != out[j].SendTime {
			return out[i].SendTime < out[j].SendTime
		}
		return out[i].Src < out[j].Src
	})
	return out
}

// EventsOf returns the recorded events sent by the given world rank, in
// send order. Unlike Events, the result is well-defined even while other
// ranks are still sending: a rank's own sends are recorded synchronously
// inside Send, so when that rank calls EventsOf(itsRank) the slice is a
// complete, stable prefix of its send history — the property the
// adapt-layer link calibrator relies on for deterministic per-rank fits.
// This holds on every backend: the shard is written only under its own
// lock, so a truly concurrent rank reading its own shard races with no
// other rank's appends.
func (t *Tracer) EventsOf(src int) []TraceEvent {
	events, _ := t.EventsOfSince(src, 0)
	return events
}

// EventsOfSince is the incremental form of EventsOf: it returns only the
// given rank's events from index `from` on (O(new events), not a rescan
// of the history), together with the tracer's reset generation. A
// consumer holding a cursor compares the generation against the one it
// last saw: a change means Reset ran in between, so its cursor indexes a
// discarded history and it must restart from zero.
func (t *Tracer) EventsOfSince(src, from int) (events []TraceEvent, generation int) {
	if src < 0 || src >= len(t.shards) {
		return nil, 0
	}
	s := &t.shards[src]
	if from < 0 {
		from = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < len(s.events) {
		events = append([]TraceEvent(nil), s.events[from:]...)
	}
	return events, s.gen
}

// Reset clears recorded events and bumps the reset generation (see
// EventsOfSince).
func (t *Tracer) Reset() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.events = s.events[:0]
		s.gen++
		s.mu.Unlock()
	}
}

// TotalBytes sums the traced payload volume.
func (t *Tracer) TotalBytes() int64 {
	var total int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, e := range s.events {
			total += int64(e.Bytes)
		}
		s.mu.Unlock()
	}
	return total
}

// Rounds groups events into communication rounds by distinct send times
// (virtual-time-synchronous algorithms produce one cluster per stage) and
// returns per-round message counts and byte totals. Only meaningful on the
// simulator, whose send times are exact virtual stage boundaries.
func (t *Tracer) Rounds() (counts []int, bytes []int64) {
	events := t.Events()
	var lastT float64 = -1
	for _, e := range events {
		if len(counts) == 0 || e.SendTime != lastT {
			counts = append(counts, 0)
			bytes = append(bytes, 0)
			lastT = e.SendTime
		}
		counts[len(counts)-1]++
		bytes[len(bytes)-1] += int64(e.Bytes)
	}
	return counts, bytes
}

// Dump writes a human-readable timeline, one line per event carrying
// every TraceEvent field: send time, endpoints, tag, size, the priced
// hierarchy level, the contention (NIC) factor, and the arrival time.
func (t *Tracer) Dump(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintf(w, "%12.3fµs  %2d → %2d  tag=%-8d %8dB  lvl=%d nic=%-6.3g arrives %12.3fµs\n",
			e.SendTime*1e6, e.Src, e.Dst, e.Tag, e.Bytes, e.Level, e.NICFactor, e.Arrival*1e6)
	}
}
