//go:build go1.23

package sim

import "iter"

// start makes the process's body a coroutine. iter.Pull's next and yield
// switch straight between the resumer's goroutine and the coroutine's, with
// no pass through the Go scheduler: that pair is a process switch.
func (p *Proc) start() { p.resume, _ = iter.Pull(p.body) }
