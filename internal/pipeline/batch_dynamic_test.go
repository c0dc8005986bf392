package pipeline_test

import (
	"math"
	"testing"

	"fastforward/internal/obs"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
)

// dynSession is one synthetic session for the churn test: a batch-member
// chain, an identically-seeded solo reference chain, and its waveforms.
type dynSession struct {
	chain, ref     *pipeline.Chain
	cancel, refCan *pipeline.CancelStage
	tx, rx         []complex128
	blocks         int // blocks processed so far
}

func newDynSession(seed int64, blockLen int) *dynSession {
	spec := pipeline.SessionChainSpec{
		CancelTaps: 24,
		CNFTaps:    16,
		CFOStepRad: 2 * math.Pi * 1500 / 20e6,
		AmpGain:    complex(math.Sqrt(10), 0),
	}
	s := &dynSession{}
	s.chain, s.cancel = pipeline.NewSessionChain(spec, rng.New(seed))
	s.ref, s.refCan = pipeline.NewSessionChain(spec, rng.New(seed))
	src := rng.New(seed ^ 0x5eed)
	s.tx = src.NoiseVector(blockLen*32, 1)
	s.rx = src.NoiseVector(blockLen*32, 1)
	return s
}

// TestDynamicBatchChurnMatchesSolo runs a scripted admission/retire/sweep
// schedule through a dynamic batch and asserts every session's output is
// bit-identical to its solo chain at every block — the daemon's
// correctness property: batching and membership churn must be invisible
// in the samples.
func TestDynamicBatchChurnMatchesSolo(t *testing.T) {
	const blockLen = 192
	reg := obs.New()
	b := pipeline.NewDynamicBatch("churn", pipeline.SessionStageNames()...)
	b.Instrument(pipeline.NewObs(reg), 0)

	sessions := make([]*dynSession, 6)
	for i := range sessions {
		sessions[i] = newDynSession(int64(1000+i), blockLen)
	}
	active := []int{}
	admit := func(i int) {
		b.Add(sessions[i].chain)
		active = append(active, i)
	}
	retire := func(i int) {
		if !b.Remove(sessions[i].chain) {
			t.Fatalf("Remove(session %d) reported non-member", i)
		}
		for k, v := range active {
			if v == i {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
	}
	sweep := func(members ...int) {
		chains := make([]*pipeline.Chain, len(members))
		blocks := make([][]complex128, len(members))
		for k, i := range members {
			s := sessions[i]
			off := s.blocks * blockLen
			chains[k] = s.chain
			blocks[k] = make([]complex128, blockLen)
			copy(blocks[k], s.rx[off:off+blockLen])
			s.cancel.SetReference(s.tx[off : off+blockLen])
		}
		b.ProcessSome(chains, blocks)
		for k, i := range members {
			s := sessions[i]
			off := s.blocks * blockLen
			want := make([]complex128, blockLen)
			copy(want, s.rx[off:off+blockLen])
			s.refCan.SetReference(s.tx[off : off+blockLen])
			s.ref.Process(want)
			for j := range want {
				if blocks[k][j] != want[j] {
					t.Fatalf("session %d block %d sample %d: batch %v, solo %v (bit-exact required)",
						i, s.blocks, j, blocks[k][j], want[j])
				}
			}
			s.blocks++
		}
	}

	// Scripted churn: admissions and retirements interleaved with sweeps
	// over varying subsets, including sweeps while other members idle.
	admit(0)
	sweep(0)
	admit(1)
	admit(2)
	sweep(0, 1, 2)
	sweep(1) // 0 and 2 idle this sweep
	retire(1)
	admit(3)
	sweep(0, 2, 3)
	retire(0)
	admit(4)
	admit(5)
	sweep(2, 3, 4, 5)
	sweep(4, 5)
	retire(2)
	retire(3)
	sweep(4, 5)
	if b.Sessions() != 2 {
		t.Fatalf("Sessions() = %d after churn, want 2", b.Sessions())
	}

	// Counters: blocks processed through the batch must equal the total
	// session-blocks swept above.
	total := 0
	for _, s := range sessions {
		total += s.blocks
	}
	if got := reg.Counter("pipeline.blocks", "blocks").Value(); got != uint64(total) {
		t.Fatalf("pipeline.blocks = %d, want %d", got, total)
	}
	if got := reg.Counter("pipeline.batch.sessions", "blocks").Value(); got != uint64(total) {
		t.Fatalf("pipeline.batch.sessions = %d, want %d", got, total)
	}
}

// TestDynamicBatchLayoutMismatch pins the Add precondition: a chain with
// the wrong stage count must be rejected loudly, not swept out of step.
func TestDynamicBatchLayoutMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a chain whose stage count does not match the batch layout")
		}
	}()
	b := pipeline.NewDynamicBatch("bad", "only_stage")
	c, _ := pipeline.NewSessionChain(pipeline.SessionChainSpec{CancelTaps: 4, CNFTaps: 4, CFOStepRad: 0.1, AmpGain: 1}, rng.New(1))
	b.Add(c)
}

// TestDynamicBatchChainsArmedByConstruction checks that session chains
// run the planar block kernel on both filter stages as soon as they join a
// batch — the daemon arms nothing — with every sweep counted once per
// filter stage in pipeline.soa_blocks.
func TestDynamicBatchChainsArmedByConstruction(t *testing.T) {
	const blockLen = 256
	reg := obs.New()
	b := pipeline.NewDynamicBatch("armed", pipeline.SessionStageNames()...)
	b.Instrument(pipeline.NewObs(reg), 0)
	sessions := []*dynSession{newDynSession(1, blockLen), newDynSession(2, blockLen)}
	chains := make([]*pipeline.Chain, len(sessions))
	blocks := make([][]complex128, len(sessions))
	for i, s := range sessions {
		b.Add(s.chain)
		chains[i] = s.chain
		blocks[i] = append([]complex128(nil), s.rx[:blockLen]...)
		s.cancel.SetReference(s.tx[:blockLen])
	}
	b.ProcessSome(chains, blocks)
	// cancel (24 taps) and cnf_pre (16 taps) per session-block.
	if got, want := reg.Counter("pipeline.soa_blocks", "blocks").Value(), uint64(2*len(sessions)); got != want {
		t.Fatalf("pipeline.soa_blocks = %d, want %d", got, want)
	}
}
