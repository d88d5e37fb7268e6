// Package sim is a deterministic discrete-event simulation kernel with the
// two building blocks the DSSP experiments need: FIFO queueing servers
// (CPUs, database servers) and network links with latency and bandwidth.
//
// The paper evaluated its prototype on Emulab with a two-node topology
// (home server and DSSP node) connected by a 100 ms / 2 Mbps link, clients
// on a 5 ms / 20 Mbps link. Scalability there is a queueing phenomenon —
// invalidation precision determines cache hit rate, hit rate determines
// home-server load, load determines response time. This kernel reproduces
// exactly that causal chain in virtual time, with every query actually
// executed, so measured hit rates and invalidations are real.
package sim

import (
	"container/heap"
	"time"
)

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    int64
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Run processes events in timestamp order (FIFO among ties) until the
// event queue is empty or virtual time would exceed until. It returns the
// virtual time reached.
func (s *Sim) Run(until time.Duration) time.Duration {
	for len(s.events) > 0 {
		e := s.events[0]
		if e.at > until {
			s.now = until
			return s.now
		}
		heap.Pop(&s.events)
		s.now = e.at
		e.fn()
	}
	if s.now < until {
		s.now = until
	}
	return s.now
}

type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Server is a FIFO queueing station with a fixed number of parallel
// service slots (capacity). Work is processed in submission order; each
// job occupies one slot for its service time.
type Server struct {
	sim      *Sim
	capacity int
	busy     int
	queue    []job

	busyTime time.Duration // aggregate slot-busy time, for utilization
}

type job struct {
	service time.Duration
	done    func()
}

// NewServer creates a server with the given number of parallel slots.
func NewServer(s *Sim, capacity int) *Server {
	if capacity < 1 {
		capacity = 1
	}
	return &Server{sim: s, capacity: capacity}
}

// Submit enqueues a job; done runs when its service completes.
func (sv *Server) Submit(service time.Duration, done func()) {
	if sv.busy < sv.capacity {
		sv.start(job{service, done})
		return
	}
	sv.queue = append(sv.queue, job{service, done})
}

func (sv *Server) start(j job) {
	sv.busy++
	sv.busyTime += j.service
	sv.sim.After(j.service, func() {
		sv.busy--
		if len(sv.queue) > 0 {
			next := sv.queue[0]
			sv.queue = sv.queue[1:]
			sv.start(next)
		}
		j.done()
	})
}

// QueueLen returns the number of jobs waiting (excluding in service).
func (sv *Server) QueueLen() int { return len(sv.queue) }

// BusyTime returns aggregate slot-busy time (divide by capacity × elapsed
// for utilization).
func (sv *Server) BusyTime() time.Duration { return sv.busyTime }

// Link models a duplex network link direction with fixed propagation
// latency and serialized transmission at the given bandwidth. Each
// direction of a physical link should be a separate Link.
type Link struct {
	sim       *Sim
	latency   time.Duration
	bytesPerS float64
	busyUntil time.Duration
}

// NewLink creates a link. bitsPerSecond <= 0 means infinite bandwidth.
func NewLink(s *Sim, latency time.Duration, bitsPerSecond float64) *Link {
	return &Link{sim: s, latency: latency, bytesPerS: bitsPerSecond / 8}
}

// Send transmits size bytes; done runs at the receiver after transmission
// (serialized with other sends on this link) plus propagation latency.
func (l *Link) Send(size int, done func()) {
	start := l.sim.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var tx time.Duration
	if l.bytesPerS > 0 {
		tx = time.Duration(float64(size) / l.bytesPerS * float64(time.Second))
	}
	l.busyUntil = start + tx
	l.sim.At(l.busyUntil+l.latency, done)
}
