package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same time, later seq
	e.Schedule(20, func() { order = append(order, 4) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", e.Now())
	}
}

func TestZeroDelayFiresSameCycle(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7 {
		t.Fatalf("zero-delay event fired at %d, want 7", at)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := e.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now() = %d, want 12", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v after Run, want all 4", fired)
	}
}

func TestRunUntilAdvancesClockWhenDrained(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(3, func() {})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine(1)
	e.MaxEvents = 10
	var tick func()
	tick = func() { e.Schedule(1, tick) }
	e.Schedule(1, tick)
	if err := e.Run(); err == nil {
		t.Fatal("expected event-budget error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine(seed)
		var got []int
		for i := 0; i < 100; i++ {
			i := i
			d := Time(e.Rand().Intn(50))
			e.Schedule(d, func() { got = append(got, i) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeConversionRoundTrip(t *testing.T) {
	f := func(ns uint16) bool {
		c := FromNanos(float64(ns))
		return Nanos(c) == float64(ns)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromNanosNonNegative(t *testing.T) {
	if FromNanos(-5) != 0 {
		t.Fatal("negative nanos should clamp to 0")
	}
	if FromNanos(150) != 300 {
		t.Fatalf("FromNanos(150) = %d, want 300 cycles at 2GHz", FromNanos(150))
	}
}

// Property: events never fire out of timestamp order.
func TestMonotonicFiring(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine(7)
		var times []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { times = append(times, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExecutedAndPendingCounters(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", e.Pending())
	}
}
