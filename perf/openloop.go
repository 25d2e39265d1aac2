package main

import (
	"math/rand"
	"time"
)

// arrivals returns the due offsets of a Poisson arrival process at rate
// requests per second over d. The same rng state gives the same schedule.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*1e9))
	}
}

// clock is the dispatcher's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// wallClock sleeps in the kernel: time.Sleep wakes on the runtime's
// timer, which can fire up to a millisecond late, and that lag would be
// charged to every request.
type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { preciseSleep(d) }

// dispatch fires request i at start+due[i], never early, whatever happened
// to earlier requests: an open loop. fire must not block. It returns each
// request's lateness, how long after its due time it was fired.
func dispatch(c clock, start time.Time, due []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(due))
	for i, off := range due {
		at := start.Add(off)
		if wait := at.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		late[i] = c.Now().Sub(at)
		fire(i, at)
	}
	return late
}
