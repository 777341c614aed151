package fixture

import "sync/atomic"

type counter struct {
	n    int64
	bits []uint64
	name string
}

func (c *counter) incr() {
	atomic.AddInt64(&c.n, 1)
}

func (c *counter) mark(i uint32) {
	atomic.StoreUint64(&c.bits[i>>6], atomic.LoadUint64(&c.bits[i>>6])|1<<(i&63))
}

func (c *counter) badWrite() {
	c.n = 0 // want "plain write to c.n"
}

func (c *counter) badElemRead() uint64 {
	return c.bits[0] // want "plain element read of c.bits"
}

func (c *counter) badElemWrite() {
	c.bits[0] = 1 // want "plain element write to c.bits"
}

func (c *counter) badRange() uint64 {
	var s uint64
	for _, w := range c.bits { // want "plain range over c.bits"
		s += w
	}
	return s
}

func (c *counter) badPass() {
	consume(c.bits) // want "passed to a non-atomic call"
}

func consume([]uint64) {}

// Header-only operations and untracked fields stay silent.
func (c *counter) okHeader() int {
	if c.bits == nil {
		return 0
	}
	c.name = "ok"
	return len(c.bits)
}

func (c *counter) justified() {
	c.n = 0 //dbvet:ignore fixture: reset runs before any goroutine can observe the counter
}
