package shard

import "sync"

type node struct {
	mu    sync.RWMutex
	items map[string]int
}

// missingUnlockOnEarlyReturn: the error path returns with mu held.
func (n *node) missingUnlockOnEarlyReturn(key string) int {
	n.mu.Lock() // want "may be held at function exit"
	v, ok := n.items[key]
	if !ok {
		return -1
	}
	n.mu.Unlock()
	return v
}

// okDefer releases on every path via defer.
func (n *node) okDefer(key string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.items[key]
	if !ok {
		return -1
	}
	return v
}

// okBalanced releases on both paths explicitly.
func (n *node) okBalanced(key string) int {
	n.mu.Lock()
	v, ok := n.items[key]
	if !ok {
		n.mu.Unlock()
		return -1
	}
	n.mu.Unlock()
	return v
}

// panicWhileLocked: the panic path exits with the lock held.
func (n *node) panicWhileLocked(key string) int {
	n.mu.Lock() // want "may be held at function exit"
	if n.items == nil {
		panic("no items")
	}
	v := n.items[key]
	n.mu.Unlock()
	return v
}

// rlockLeaked: RLock with an early return missing RUnlock.
func (n *node) rlockLeaked(key string) int {
	n.mu.RLock() // want "RLock\\(\\) may be held at function exit"
	if len(n.items) == 0 {
		return 0
	}
	v := n.items[key]
	n.mu.RUnlock()
	return v
}

// mismatchedUnlock: RLock released with Unlock does not balance.
func (n *node) mismatchedUnlock(key string) int {
	n.mu.RLock() // want "RLock\\(\\) may be held at function exit"
	v := n.items[key]
	n.mu.Unlock()
	return v
}

// okDistinctLocks: two different receivers do not alias.
type pair struct {
	a, b node
}

func (p *pair) okDistinct() {
	p.a.mu.Lock()
	p.b.mu.Lock()
	p.b.mu.Unlock()
	p.a.mu.Unlock()
}

// lockedHelper intentionally returns holding the lock; the directive
// documents the contract and keeps the fixture suppression path covered.
func (n *node) lockedHelper() {
	//lint:ignore lockbalance returns holding the lock by contract; caller unlocks
	n.mu.Lock()
}
