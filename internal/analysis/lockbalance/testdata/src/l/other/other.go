// Package other is none of the serving tiers: lockbalance checks every
// package.
package other

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) addPositive(d int) bool {
	c.mu.Lock() // want "may be held at function exit"
	if d <= 0 {
		return false
	}
	c.n += d
	c.mu.Unlock()
	return true
}
