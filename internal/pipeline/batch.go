package pipeline

import (
	"fastforward/internal/obs"
)

// Batch advances N sessions' chains through one stage sweep per block:
// stage 0 runs for every session, then stage 1, and so on. Each chain
// keeps its own streaming state and its own block, so the output is
// bit-identical to processing the chains one by one — the sweep order
// only changes which overheads are paid per session and which per stage.
// Amortized across the sweep: the per-stage wall-clock timer brackets
// (two clock reads per stage instead of two per stage per session), the
// pipeline.blocks/samples counter updates (one atomic add per sweep),
// and the internal/fft plan-cache and twiddle-table locality when
// several sessions' filter stages run the same FFT length back to back.
//
// All chains must have the same number of stages (the multi-session
// deployment shape: one relay chain per 20 MHz session). ProcessAll is
// allocation-free at steady state.
//
// Membership can change at run time (the relay daemon's session
// lifecycle): NewDynamicBatch starts empty, Add admits a session chain,
// Remove retires one, and ProcessSome sweeps any subset of admitted
// chains. Membership mutations and sweeps touching the same chain must
// be ordered by the caller (the daemon orders them through its executor
// channel); sweeps never read the membership slice, so Add/Remove for
// one session may overlap another session's sweep.
type Batch struct {
	name string
	// stageNames fixes the stage-position layout every member chain must
	// match; timers are named after it.
	stageNames []string
	chains     []*Chain
	o          *Obs
	shard      int
	// timers[i] times stage position i across all sessions.
	timers []*obs.StageTimer
}

// NewBatch builds a batched executor over the given session chains. It
// panics if the chains do not all have the same stage count — the sweep
// advances stage positions in lockstep.
func NewBatch(name string, chains ...*Chain) *Batch {
	if len(chains) == 0 {
		panic("pipeline: NewBatch needs at least one chain")
	}
	names := make([]string, len(chains[0].stages))
	for i, st := range chains[0].stages {
		names[i] = st.Name()
	}
	b := &Batch{name: name, stageNames: names}
	for _, c := range chains {
		b.Add(c)
	}
	return b
}

// NewDynamicBatch builds an empty batched executor whose member chains
// come and go at run time. stageNames fixes the sweep layout: every
// chain Added later must have exactly len(stageNames) stages, and the
// per-position wall-clock timers are named after it
// (pipeline.<batch>.<stageNames[i]>).
func NewDynamicBatch(name string, stageNames ...string) *Batch {
	if len(stageNames) == 0 {
		panic("pipeline: NewDynamicBatch needs at least one stage name")
	}
	return &Batch{name: name, stageNames: append([]string(nil), stageNames...)}
}

// Add admits a session chain into the batch: its stage count must match
// the batch layout. The chain inherits the batch's instrumentation (its
// own block counters and timers are detached so batched sweeps are not
// double-counted).
func (b *Batch) Add(c *Chain) {
	if len(c.stages) != len(b.stageNames) {
		panic("pipeline: Batch.Add chain stage count does not match the batch layout")
	}
	b.chains = append(b.chains, c)
	b.wireChain(c)
}

// Remove retires a session chain (matched by identity), preserving the
// order of the rest. Reports whether the chain was a member. The chain's
// streaming state is left untouched — a caller draining a session can
// keep processing it solo.
func (b *Batch) Remove(c *Chain) bool {
	for i, m := range b.chains {
		if m == c {
			b.chains = append(b.chains[:i], b.chains[i+1:]...)
			return true
		}
	}
	return false
}

// wireChain attaches the batch's instrumentation to one member chain:
// stage-level block-path counters stay, per-chain block counters and
// timers are detached (the batch records for all of its sessions).
func (b *Batch) wireChain(c *Chain) {
	c.Instrument(b.o, b.shard)
	c.o = nil
	c.timers = nil
}

// Name returns the batch name.
func (b *Batch) Name() string { return b.name }

// Sessions returns the number of chains the batch advances per sweep.
func (b *Batch) Sessions() int { return len(b.chains) }

// Chains returns the session chains (shared, not a copy).
func (b *Batch) Chains() []*Chain { return b.chains }

// Instrument attaches pipeline.* metrics on the given shard: the block
// and sample counters plus the batch sweep counters, block-path counters
// on every capable stage, and one wall-clock timer per stage position
// (pipeline.<batch>.<stageNames[i]>). Nil o detaches. Per-chain
// instrumentation is cleared: the batch records for all of its sessions.
// Chains Added later inherit the same wiring. Must not run concurrently
// with sweeps.
func (b *Batch) Instrument(o *Obs, shard int) {
	b.o = o
	b.shard = shard
	b.timers = nil
	for _, c := range b.chains {
		b.wireChain(c)
	}
	if o == nil || o.reg == nil {
		return
	}
	b.timers = make([]*obs.StageTimer, len(b.stageNames))
	for i, name := range b.stageNames {
		b.timers[i] = o.reg.Timer("pipeline." + b.name + "." + name)
	}
}

// ProcessAll advances every session by one block through one stage sweep.
// blocks[i] is session i's block (any lengths, typically equal); the
// processed block replaces it in place. len(blocks) must equal Sessions.
func (b *Batch) ProcessAll(blocks [][]complex128) {
	if len(blocks) != len(b.chains) {
		panic("pipeline: ProcessAll needs one block per session")
	}
	b.ProcessSome(b.chains, blocks)
}

// ProcessSome advances the listed session chains by one block each
// through one stage sweep: stage position 0 runs for every listed chain,
// then position 1, and so on. The chains must have been Added (so their
// instrumentation is wired) and each must appear at most once per call —
// a chain's blocks stay ordered because its handler submits them one at
// a time. This is the daemon's sweep entry point: sessions whose blocks
// arrived together share one sweep, everyone else is simply absent from
// it. Allocation-free.
func (b *Batch) ProcessSome(chains []*Chain, blocks [][]complex128) {
	if len(blocks) != len(chains) {
		panic("pipeline: ProcessSome needs one block per chain")
	}
	if len(chains) == 0 {
		return
	}
	if b.o != nil {
		total := 0
		for _, blk := range blocks {
			total += len(blk)
		}
		b.o.Blocks.Add(b.shard, uint64(len(blocks)))
		b.o.Samples.Add(b.shard, uint64(total))
		b.o.BatchSweeps.Inc(b.shard)
		b.o.BatchSessions.Add(b.shard, uint64(len(blocks)))
	}
	nstages := len(b.stageNames)
	if b.timers != nil {
		for si := 0; si < nstages; si++ {
			start := obs.NowNanos()
			for ci, c := range chains {
				blocks[ci] = c.stages[si].Process(blocks[ci])
			}
			b.timers[si].AddNS(obs.NowNanos() - start)
		}
		return
	}
	for si := 0; si < nstages; si++ {
		for ci, c := range chains {
			blocks[ci] = c.stages[si].Process(blocks[ci])
		}
	}
}

// Reset clears every session chain's streaming state.
func (b *Batch) Reset() {
	for _, c := range b.chains {
		c.Reset()
	}
}

// BlockPool is a deterministic free-list of sample blocks for the
// batched executor's callers: Get returns a zeroed block of the exact
// requested length, Put recycles one. Unlike sync.Pool it never drops
// buffers between GC cycles and has no cross-goroutine machinery — the
// multi-session hot path is single-core by design (the sessions-per-core
// metric), so a plain LIFO list keeps ProcessAll's callers at zero
// allocations per block without scheduler-dependent behavior.
type BlockPool struct {
	free [][]complex128
}

// Get returns a zeroed block of length n, reusing a recycled one when
// its capacity suffices.
func (p *BlockPool) Get(n int) []complex128 {
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			b := p.free[i][:n]
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			for j := range b {
				b[j] = 0
			}
			return b
		}
	}
	return make([]complex128, n)
}

// Put recycles a block for later Get calls. The caller must not use b
// afterwards.
func (p *BlockPool) Put(b []complex128) {
	if cap(b) == 0 {
		return
	}
	p.free = append(p.free, b)
}
