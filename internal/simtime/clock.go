// Package simtime provides a clock abstraction so that Inca components can
// run against either real wall-clock time or a discrete-event virtual clock.
//
// The paper's evaluation observes deployments over one-week windows
// (Sections 5.1 and 5.2.1). Re-running those experiments in real time is not
// practical, so every time-dependent component in this reproduction accepts a
// Clock. The virtual clock executes the same schedule with identical event
// ordering while compressing wall time to however long the work itself takes.
package simtime

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout Inca. Real deployments
// use Real; experiments use a *Sim clock advanced by the harness.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that delivers the clock's time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
}

// Real is the wall-clock implementation of Clock.
type Real struct{}

// Now returns time.Now.
func (Real) Now() time.Time { return time.Now() }

// After wraps time.After.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep wraps time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// timer is a pending wake-up registered on a Sim clock.
type timer struct {
	at      time.Time
	ch      chan time.Time
	seq     uint64 // tiebreaker so equal deadlines fire in registration order
	sleeper bool   // registered by Sleep; counted in waiters until fired
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Sim is a virtual clock. Time only moves when the owner calls Advance,
// AdvanceTo, or Run; goroutines blocked in Sleep/After wake deterministically
// in deadline order.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	timers  timerHeap
	seq     uint64
	waiters int // goroutines currently blocked on this clock
	cond    *sync.Cond
}

// NewSim returns a virtual clock whose current time is start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After returns a channel that fires when the virtual clock reaches
// Now()+d. Non-positive durations fire at the current instant on the next
// advance (or immediately if the deadline is already due).
func (s *Sim) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &timer{at: s.now.Add(d), ch: make(chan time.Time, 1), seq: s.seq}
	s.seq++
	if !t.at.After(s.now) {
		t.ch <- s.now
		return t.ch
	}
	heap.Push(&s.timers, t)
	return t.ch
}

// Sleep blocks the calling goroutine until the virtual clock has advanced by
// d. The clock tracks blocked sleepers so a driver can wait for quiescence;
// the waiter count is decremented when the deadline fires (inside
// Advance/Step), not when the goroutine resumes, so after Step returns the
// count already excludes every just-woken sleeper. A driver can therefore
// alternate WaitForWaiters(n) and Step() without racing the sleepers.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	t := &timer{at: s.now.Add(d), ch: make(chan time.Time, 1), seq: s.seq, sleeper: true}
	s.seq++
	heap.Push(&s.timers, t)
	s.waiters++
	s.cond.Broadcast()
	s.mu.Unlock()
	<-t.ch
}

// Waiters reports how many goroutines are currently blocked in Sleep on this
// clock. Harness code uses it to detect that a simulated component has
// settled before advancing time again.
func (s *Sim) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters
}

// WaitForWaiters blocks until at least n goroutines are asleep on the clock.
func (s *Sim) WaitForWaiters(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.waiters < n {
		s.cond.Wait()
	}
}

// Advance moves virtual time forward by d, firing every timer whose deadline
// falls inside the window in deadline order. It returns the number of timers
// fired.
func (s *Sim) Advance(d time.Duration) int {
	return s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo moves virtual time to target (no-op if target is in the past),
// firing due timers in order. It returns the number of timers fired.
func (s *Sim) AdvanceTo(target time.Time) int {
	fired := 0
	for {
		s.mu.Lock()
		if len(s.timers) == 0 || s.timers[0].at.After(target) {
			if target.After(s.now) {
				s.now = target
			}
			s.mu.Unlock()
			return fired
		}
		t := heap.Pop(&s.timers).(*timer)
		if t.at.After(s.now) {
			s.now = t.at
		}
		if t.sleeper {
			s.waiters--
		}
		now := s.now
		s.mu.Unlock()
		t.ch <- now
		fired++
	}
}

// NextDeadline returns the earliest pending timer deadline and true, or the
// zero time and false when no timers are pending.
func (s *Sim) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.timers) == 0 {
		return time.Time{}, false
	}
	return s.timers[0].at, true
}

// Step advances the clock to the next pending deadline, firing exactly the
// timers due at that instant. It reports whether any timer fired.
func (s *Sim) Step() bool {
	dl, ok := s.NextDeadline()
	if !ok {
		return false
	}
	return s.AdvanceTo(dl) > 0
}

// Pending reports the number of pending timers.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timers)
}

// Backoff returns the wait before retry number n (1-based) on a jittered
// exponential ladder: a uniform random duration in [0, min(cap, base·2ⁿ⁻¹)].
// The whole rung is jitter, so peers cut off by one failure do not come
// back in lockstep. Callers sleep it on their own Clock.
func Backoff(base, cap time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}
