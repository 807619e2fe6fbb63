package simtime

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)

func TestRealClockNow(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestSimNowStable(t *testing.T) {
	s := NewSim(epoch)
	if !s.Now().Equal(epoch) {
		t.Fatalf("Now = %v, want %v", s.Now(), epoch)
	}
	s.Advance(0)
	if !s.Now().Equal(epoch) {
		t.Fatalf("Now moved on zero advance: %v", s.Now())
	}
}

func TestSimAfterFiresOnAdvance(t *testing.T) {
	s := NewSim(epoch)
	ch := s.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before advance")
	default:
	}
	if n := s.Advance(9 * time.Second); n != 0 {
		t.Fatalf("fired %d timers before deadline", n)
	}
	if n := s.Advance(time.Second); n != 1 {
		t.Fatalf("fired %d timers at deadline, want 1", n)
	}
	got := <-ch
	if want := epoch.Add(10 * time.Second); !got.Equal(want) {
		t.Fatalf("timer delivered %v, want %v", got, want)
	}
}

func TestSimAfterNonPositiveFiresImmediately(t *testing.T) {
	s := NewSim(epoch)
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case got := <-s.After(d):
			if !got.Equal(epoch) {
				t.Fatalf("After(%v) delivered %v, want %v", d, got, epoch)
			}
		default:
			t.Fatalf("After(%v) did not fire immediately", d)
		}
	}
}

func TestSimTimersFireInDeadlineOrder(t *testing.T) {
	s := NewSim(epoch)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	durations := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, d := range durations {
		wg.Add(1)
		ch := s.After(d)
		go func(i int) {
			defer wg.Done()
			<-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i)
	}
	// Advance past all deadlines one step at a time so delivery order is
	// observable.
	for s.Step() {
		time.Sleep(time.Millisecond) // let the woken goroutine record itself
	}
	wg.Wait()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

func TestSimEqualDeadlinesFireInRegistrationOrder(t *testing.T) {
	s := NewSim(epoch)
	a := s.After(5 * time.Second)
	b := s.After(5 * time.Second)
	s.Advance(5 * time.Second)
	// Both buffered channels hold a value; heap order determined a fired
	// first. We can only verify both fired and at the same instant.
	ta, tb := <-a, <-b
	if !ta.Equal(tb) {
		t.Fatalf("equal deadlines delivered different times: %v vs %v", ta, tb)
	}
}

func TestSimAdvanceToPastIsNoOp(t *testing.T) {
	s := NewSim(epoch)
	s.Advance(time.Hour)
	if n := s.AdvanceTo(epoch); n != 0 {
		t.Fatalf("AdvanceTo(past) fired %d timers", n)
	}
	if !s.Now().Equal(epoch.Add(time.Hour)) {
		t.Fatalf("AdvanceTo(past) moved the clock backwards to %v", s.Now())
	}
}

func TestSimSleepWakes(t *testing.T) {
	s := NewSim(epoch)
	done := make(chan struct{})
	go func() {
		s.Sleep(time.Minute)
		close(done)
	}()
	s.WaitForWaiters(1)
	if w := s.Waiters(); w != 1 {
		t.Fatalf("Waiters = %d, want 1", w)
	}
	s.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper did not wake after advance")
	}
}

func TestSimNextDeadline(t *testing.T) {
	s := NewSim(epoch)
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a deadline on an empty clock")
	}
	s.After(time.Hour)
	s.After(time.Minute)
	dl, ok := s.NextDeadline()
	if !ok || !dl.Equal(epoch.Add(time.Minute)) {
		t.Fatalf("NextDeadline = %v,%v; want %v,true", dl, ok, epoch.Add(time.Minute))
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
}

func TestSimStepOnEmptyClock(t *testing.T) {
	s := NewSim(epoch)
	if s.Step() {
		t.Fatal("Step fired on an empty clock")
	}
}

func TestSimManyTimersAllFire(t *testing.T) {
	s := NewSim(epoch)
	const n = 1000
	chans := make([]<-chan time.Time, n)
	for i := 0; i < n; i++ {
		chans[i] = s.After(time.Duration(i%97+1) * time.Second)
	}
	if fired := s.Advance(100 * time.Second); fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
	for i, ch := range chans {
		select {
		case <-ch:
		default:
			t.Fatalf("timer %d never delivered", i)
		}
	}
}

// TestBackoffLadder: rung n is drawn from [0, min(cap, base·2ⁿ⁻¹)], and
// across draws a rung is used past its lower half — peers on one ladder
// do not sleep the same time.
func TestBackoffLadder(t *testing.T) {
	const base, cap = 5 * time.Millisecond, 250 * time.Millisecond
	for n := 1; n <= 70; n++ { // far past where base·2ⁿ⁻¹ would overflow
		rung := cap
		if n <= 6 {
			rung = base << (n - 1)
		}
		var most time.Duration
		for i := 0; i < 200; i++ {
			d := Backoff(base, cap, n)
			if d < 0 || d > rung {
				t.Fatalf("Backoff(n=%d) = %v, outside [0, %v]", n, d, rung)
			}
			if d > most {
				most = d
			}
		}
		if most <= rung/2 {
			t.Fatalf("200 draws of rung %d never passed %v of %v", n, most, rung)
		}
	}
}
