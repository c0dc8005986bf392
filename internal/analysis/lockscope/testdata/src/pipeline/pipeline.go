// Package pipeline is a fixture stub of internal/pipeline: just the
// block DSP surface lockscope treats as blocking.
package pipeline

type Chain struct{ n int }

func (c *Chain) Process(block []complex128) []complex128 { return block }
