package other

// Each function below leaves the block that took the lock before the one
// release in that block runs.

func (c *counter) continueOutOfLoopBody(xs []int) {
	for _, x := range xs {
		c.mu.Lock() // want "may be held at function exit"
		if x < 0 {
			continue
		}
		c.n += x
		c.mu.Unlock()
	}
}

func (c *counter) breakOutOfLoopBody(xs []int) {
	for _, x := range xs {
		c.mu.Lock() // want "may be held at function exit"
		if x < 0 {
			break
		}
		c.n += x
		c.mu.Unlock()
	}
}

func (c *counter) breakOutOfCase(d int) {
	switch {
	case d > 0:
		c.mu.Lock() // want "may be held at function exit"
		if d > 10 {
			break
		}
		c.n += d
		c.mu.Unlock()
	}
}

func (c *counter) breakOutOfCommClause(ch <-chan int) {
	select {
	case d := <-ch:
		c.mu.Lock() // want "may be held at function exit"
		if d < 0 {
			break
		}
		c.n += d
		c.mu.Unlock()
	default:
	}
}

func (c *counter) labeledBreak(xs, ys []int) {
outer:
	for _, x := range xs {
		c.mu.Lock() // want "may be held at function exit"
		for _, y := range ys {
			if x == y {
				break outer
			}
		}
		c.n += x
		c.mu.Unlock()
	}
}

func (c *counter) gotoPastRelease(d int) {
	c.mu.Lock() // want "may be held at function exit"
	if d < 0 {
		goto done
	}
	c.n += d
	c.mu.Unlock()
done:
}

func (c *counter) panicInNestedBlock(xs []int) {
	c.mu.Lock() // want "may be held at function exit"
	for _, x := range xs {
		if x < 0 {
			panic("negative")
		}
		c.n += x
	}
	c.mu.Unlock()
}

// The functions below keep the lock inside the block until its release.

func (c *counter) okBreakBoundInside(xs []int, ch <-chan int) {
	c.mu.Lock()
	for _, x := range xs {
		if x < 0 {
			break
		}
		switch {
		case x == 0:
			continue
		case x > 10:
			break
		}
		c.n += x
	}
	select {
	case d := <-ch:
		if d < 0 {
			break
		}
		c.n += d
	default:
	}
	c.mu.Unlock()
}

func (c *counter) okDeferAfterAFewStatements(d int) int {
	c.mu.Lock()
	n := c.n
	n += d
	defer c.mu.Unlock()
	if n < 0 {
		return 0
	}
	c.n = n
	return n
}

func (c *counter) okReturnInFuncLit(d int) {
	c.mu.Lock()
	clamp := func(x int) int {
		if x < 0 {
			return 0
		}
		return x
	}
	c.n += clamp(d)
	c.mu.Unlock()
}

func (c *counter) okTryLock(d int) bool {
	if !c.mu.TryLock() {
		return false
	}
	c.n += d
	c.mu.Unlock()
	return true
}
