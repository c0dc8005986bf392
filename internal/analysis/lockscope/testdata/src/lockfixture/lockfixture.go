// Package lockfixture exercises lockscope: blocking operations under a
// held mutex, early returns that leak a lock, and lock-order inversions
// across the Pool -> Server -> Gate hierarchy (the fixture mirror of
// fleet.Pool -> relayd.Server -> relayd.Gate).
package lockfixture

import (
	"net"
	"pipeline"
	"sync"
	"time"
)

type Gate struct {
	mu     sync.Mutex
	active int
}

type Server struct {
	mu    sync.Mutex
	gate  *Gate
	conns map[net.Conn]bool
	chain *pipeline.Chain
	ch    chan int
}

type Pool struct{ relays []int }

func (p *Pool) Len() int { return len(p.relays) }

// Admit is the clean lock-then-defer idiom: no findings.
func (g *Gate) Admit() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.active++
	return true
}

func (s *Server) sleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking operation \(time\.Sleep\) while s\.mu is held`
	s.mu.Unlock()
}

func (s *Server) sendHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want `blocking operation \(channel send\) while s\.mu is held`
}

func (s *Server) recvHeld() int {
	s.mu.Lock()
	v := <-s.ch // want `blocking operation \(channel receive\) while s\.mu is held`
	s.mu.Unlock()
	return v
}

// closeConnsHeld is the pinned real finding: internal/relayd's closeConns
// once force-closed every tracked conn while still holding the server
// mutex (fixed in the same PR that added this analyzer).
func (s *Server) closeConnsHeld() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close() // want `blocking operation \(net\.Conn\.Close\) while s\.mu is held`
	}
	s.mu.Unlock()
}

// closeConnsFixed is the corrected shape: snapshot under the lock, close
// outside it.
func (s *Server) closeConnsFixed() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// chainHeld runs a session's block DSP under the server lock: every
// other session's admission and release would wait out the block.
func (s *Server) chainHeld(block []complex128) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain.Process(block) // want `blocking operation \(pipeline\.Chain\.Process\) while s\.mu is held`
}

// chainFixed is the handler-inline shape: the block runs with no lock
// held.
func (s *Server) chainFixed(block []complex128) []complex128 {
	s.mu.Lock()
	c := s.chain
	s.mu.Unlock()
	return c.Process(block)
}

func (s *Server) selectHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `blocking operation \(select without default\) while s\.mu is held`
	case v := <-s.ch:
		_ = v
	}
}

// selectDefaultOK: a select with a default clause cannot block.
func (s *Server) selectDefaultOK() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		_ = v
	default:
	}
}

func (s *Server) rangeChanHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want `blocking operation \(range over channel\) while s\.mu is held`
		_ = v
	}
}

func (s *Server) earlyReturnLeak(cond bool) int {
	s.mu.Lock()
	if cond {
		return 0 // want `return while s\.mu is held`
	}
	s.mu.Unlock()
	return 1
}

func (s *Server) neverUnlocked() {
	s.mu.Lock() // want `s\.mu is locked here but never unlocked`
	s.gate.Admit()
}

// deferClosureUnlockOK: an unlock inside a deferred closure covers every
// return path.
func (s *Server) deferClosureUnlockOK() {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	s.gate.Admit()
}

// badOrderCall holds the innermost lock (Gate) and calls out to the
// outermost type (Pool): an inversion.
func badOrderCall(p *Pool, g *Gate) int {
	g.mu.Lock()
	n := p.Len() // want `lock ordering inversion: call to Pool\.Len`
	g.mu.Unlock()
	return n
}

func badOrderAcquire(s *Server, g *Gate) {
	g.mu.Lock()
	s.mu.Lock() // want `lock ordering inversion: acquiring s\.mu`
	s.mu.Unlock()
	g.mu.Unlock()
}

// goodOrder acquires outer-to-inner, which is the sanctioned direction.
func goodOrder(s *Server, g *Gate) {
	s.mu.Lock()
	g.mu.Lock()
	g.mu.Unlock()
	s.mu.Unlock()
}

func doubleLock(g *Gate) {
	g.mu.Lock()
	g.mu.Lock() // want `g\.mu locked while already held`
	g.mu.Unlock()
	g.mu.Unlock()
}

// unheldOK: all of these block, but nothing is held.
func (s *Server) unheldOK(c net.Conn) {
	time.Sleep(time.Millisecond)
	s.ch <- 1
	c.Close()
}

// allowedHeld carries a written justification.
func (s *Server) allowedHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) //fflint:allow lockscope fixture exercises the suppression path
}
