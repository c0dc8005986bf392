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
type Batch struct {
	name   string
	chains []*Chain
	o      *Obs
	shard  int
	// timers[i] times stage position i across all sessions.
	timers []*obs.StageTimer
}

// NewBatch builds a batched executor over the given session chains. It
// panics if the chains do not all have the same stage count — the sweep
// advances stage positions in lockstep. The chains' own block counters
// and timers are detached: the batch records for all of its sessions.
func NewBatch(name string, chains ...*Chain) *Batch {
	if len(chains) == 0 {
		panic("pipeline: NewBatch needs at least one chain")
	}
	b := &Batch{name: name, chains: append([]*Chain(nil), chains...)}
	for _, c := range b.chains {
		if len(c.stages) != len(chains[0].stages) {
			panic("pipeline: NewBatch chains differ in stage count")
		}
		b.wireChain(c)
	}
	return b
}

// wireChain attaches the batch's instrumentation to one member chain:
// the stage-level block-path counters follow the batch, and the chain's
// own block counters and timers stay detached (never registered, so a
// batch-hosted manifest lists no zero-call timers).
func (b *Batch) wireChain(c *Chain) {
	c.o, c.timers = nil, nil
	c.instrumentStages(b.o, b.shard)
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
// (pipeline.<batch>.<stage>, named after the first chain's stages). Nil
// o detaches. Must not run concurrently with sweeps.
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
	stages := b.chains[0].stages
	b.timers = make([]*obs.StageTimer, len(stages))
	for i, st := range stages {
		b.timers[i] = o.reg.Timer("pipeline." + b.name + "." + st.Name())
	}
}

// ProcessAll advances every session by one block through one stage sweep.
// blocks[i] is session i's block (any lengths, typically equal); the
// processed block replaces it in place. len(blocks) must equal Sessions.
func (b *Batch) ProcessAll(blocks [][]complex128) {
	if len(blocks) != len(b.chains) {
		panic("pipeline: ProcessAll needs one block per session")
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
	nstages := len(b.chains[0].stages)
	if b.timers != nil {
		for si := 0; si < nstages; si++ {
			start := obs.NowNanos()
			for ci, c := range b.chains {
				blocks[ci] = c.stages[si].Process(blocks[ci])
			}
			b.timers[si].AddNS(obs.NowNanos() - start)
		}
		return
	}
	for si := 0; si < nstages; si++ {
		for ci, c := range b.chains {
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
