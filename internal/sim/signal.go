package sim

// Signal is a condition-variable-like primitive: processes Wait on it and a
// callback or another process wakes them with Signal or Broadcast. Waiters
// wake in FIFO order, at the virtual time of the wake call. The waiter list
// keeps its array: Signal shifts the survivors down instead of reslicing past
// the woken one, which would leave a list with no capacity and make the next
// Wait allocate.
type Signal struct {
	eng     *Engine
	waiters []*Proc
}

// NewSignal returns a Signal bound to the engine.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// Wait parks the calling process until Signal or Broadcast wakes it.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	s.eng.addBlocked(p)
	p.park()
}

// WaitTimeout parks the calling process until woken or until d elapses.
// It reports whether the process was woken (true) or timed out (false).
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	woken := false
	s.waiters = append(s.waiters, p)
	s.eng.addBlocked(p)
	// Timer event: if it fires first, remove the waiter and wake with
	// woken=false. If Signal fires first, it removes the waiter; the timer
	// then finds the process absent and does nothing.
	timedOut := false
	s.eng.After(d, func() {
		if woken || timedOut {
			return
		}
		if s.remove(p) {
			timedOut = true
			s.eng.removeBlocked(p)
			s.eng.schedule(s.eng.now, nil, nil, p)
		}
	})
	p.park()
	if !timedOut {
		woken = true
	}
	return woken
}

// Await is Wait for a process whose chain of steps waits here: called from a
// Step (see Proc.SleepSteps), it parks the stepping process on the signal, and
// the wake event runs the chain's next Step instead of resuming the process.
// The Step returns Await's result at once. The waiter is registered exactly
// where Wait would register it, so a chain that awaits where a loop waits
// schedules every event at the same point of the dispatch order; the process
// stays on the engine's blocked list meanwhile, so Shutdown, the SIMCHECK
// guard and a group's window bounds see it parked on a signal.
func (s *Signal) Await() (Duration, bool) {
	p := s.eng.stepping
	if p == nil {
		panic("sim: Await called outside a Step")
	}
	s.waiters = append(s.waiters, p)
	s.eng.addBlocked(p)
	p.awaiting = true
	return 0, true
}

// remove deletes p from the waiter list, reporting whether it was present.
func (s *Signal) remove(p *Proc) bool {
	for i, q := range s.waiters {
		if q == p {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Signal wakes the oldest waiter, if any. It reports whether a process was
// woken. Must be called from an event callback or another process (never
// from the woken process itself).
func (s *Signal) Signal() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	n := copy(s.waiters, s.waiters[1:])
	s.waiters[n] = nil
	s.waiters = s.waiters[:n]
	s.eng.removeBlocked(p)
	s.eng.schedule(s.eng.now, nil, nil, p)
	return true
}

// Broadcast wakes all waiters in FIFO order.
func (s *Signal) Broadcast() {
	for _, p := range s.waiters {
		s.eng.removeBlocked(p)
		s.eng.schedule(s.eng.now, nil, nil, p)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiters returns the number of parked processes.
func (s *Signal) Waiters() int { return len(s.waiters) }
