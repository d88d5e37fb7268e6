package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != time.Second {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Sim
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var s Sim
	var times []time.Duration
	s.After(time.Millisecond, func() {
		times = append(times, s.Now())
		s.After(time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run(time.Second)
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	var s Sim
	fired := false
	s.After(2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if len(s.events) != 1 {
		t.Errorf("pending events = %d", len(s.events))
	}
	s.Run(3 * time.Second)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	var s Sim
	s.After(time.Millisecond, func() {
		s.At(0, func() {}) // in the past: must fire at Now, not violate order
	})
	s.Run(time.Second) // must not panic or loop
}

func TestServerSequential(t *testing.T) {
	var s Sim
	sv := NewServer(&s, 1)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		sv.Submit(10*time.Millisecond, func() { done = append(done, s.Now()) })
	}
	s.Run(time.Second)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i, w := range want {
		if done[i] != w {
			t.Errorf("job %d done at %v, want %v", i, done[i], w)
		}
	}
	if sv.BusyTime() != 30*time.Millisecond {
		t.Errorf("BusyTime = %v", sv.BusyTime())
	}
}

func TestServerParallel(t *testing.T) {
	var s Sim
	sv := NewServer(&s, 2)
	var done []time.Duration
	for i := 0; i < 4; i++ {
		sv.Submit(10*time.Millisecond, func() { done = append(done, s.Now()) })
	}
	s.Run(time.Second)
	// Two at 10ms, two at 20ms.
	if done[1] != 10*time.Millisecond || done[3] != 20*time.Millisecond {
		t.Errorf("done = %v", done)
	}
}

func TestServerQueueLen(t *testing.T) {
	var s Sim
	sv := NewServer(&s, 1)
	for i := 0; i < 5; i++ {
		sv.Submit(time.Millisecond, func() {})
	}
	if sv.QueueLen() != 4 {
		t.Errorf("QueueLen = %d", sv.QueueLen())
	}
	s.Run(time.Second)
	if sv.QueueLen() != 0 {
		t.Errorf("QueueLen after run = %d", sv.QueueLen())
	}
}

func TestLinkLatencyAndBandwidth(t *testing.T) {
	var s Sim
	// 8 Mbps = 1 MB/s; 1 MB payload takes 1 s transmission + 100 ms latency.
	l := NewLink(&s, 100*time.Millisecond, 8e6)
	var at time.Duration
	l.Send(1_000_000, func() { at = s.Now() })
	s.Run(10 * time.Second)
	if at != 1100*time.Millisecond {
		t.Errorf("delivered at %v", at)
	}
}

func TestLinkSerialization(t *testing.T) {
	var s Sim
	l := NewLink(&s, 0, 8e6) // 1 MB/s, no latency
	var first, second time.Duration
	l.Send(1_000_000, func() { first = s.Now() })
	l.Send(1_000_000, func() { second = s.Now() })
	s.Run(10 * time.Second)
	if first != time.Second || second != 2*time.Second {
		t.Errorf("first=%v second=%v", first, second)
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	var s Sim
	l := NewLink(&s, 5*time.Millisecond, 0)
	var at time.Duration
	l.Send(1<<30, func() { at = s.Now() })
	s.Run(time.Second)
	if at != 5*time.Millisecond {
		t.Errorf("delivered at %v", at)
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	var s Sim
	sv := NewServer(&s, 0)
	ran := false
	sv.Submit(time.Millisecond, func() { ran = true })
	s.Run(time.Second)
	if !ran {
		t.Error("zero-capacity server never served")
	}
}
