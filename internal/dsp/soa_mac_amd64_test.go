package dsp

// forEachBody calls run once per kernel body the host supports — the Go
// bodies, then AVX2 and AVX-512 where CPUID found them — with the
// package's dispatch set to select it, and restores the dispatch after.
func forEachBody(run func(body string)) {
	hostAVX2, hostAVX512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = hostAVX2, hostAVX512 }()
	useAVX2, useAVX512 = false, false
	run("go")
	if hostAVX2 {
		useAVX2 = true
		run("avx2")
	}
	if hostAVX512 {
		useAVX512 = true
		run("avx512")
	}
}
