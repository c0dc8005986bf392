package relayd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"

	"fastforward/internal/rng"
)

func TestFrameRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	params := SessionParams{
		SampleRateHz: 20e6, BlockSamples: 64, CancelTaps: 8, CNFTaps: 4,
		CFOHz: 100, Seed: 7,
		CancellationDB: 60, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 30,
	}
	if err := writeJSONFrame(&wire, FrameHello, params); err != nil {
		t.Fatalf("writeJSONFrame: %v", err)
	}
	if err := writeFrame(&wire, FrameDone, make([]byte, frameHeaderLen)); err != nil {
		t.Fatalf("writeFrame(DONE): %v", err)
	}

	br := bufio.NewReaderSize(&wire, controlWindow)
	typ, payload, err := readFrame(br)
	if err != nil || typ != FrameHello {
		t.Fatalf("readFrame = type %d, err %v; want HELLO", typ, err)
	}
	var got SessionParams
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("unmarshal hello: %v", err)
	}
	if got != params {
		t.Fatalf("hello round trip: got %+v, want %+v", got, params)
	}
	typ, payload, err = readFrame(br)
	if err != nil || typ != FrameDone || len(payload) != 0 {
		t.Fatalf("readFrame = type %d, %d bytes, err %v; want empty DONE", typ, len(payload), err)
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, FrameData}
	if _, _, err := readFrame(bufio.NewReaderSize(bytes.NewReader(hdr), controlWindow)); err == nil {
		t.Fatal("readFrame accepted a 4 GiB frame header")
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	if err := writeFrame(io.Discard, FrameData, make([]byte, frameHeaderLen+MaxFramePayload+1)); err == nil {
		t.Fatal("writeFrame accepted an oversized payload")
	}
}

// samplesToBytesGo is the wire encoding of s spelled out: each float64
// little-endian, real part first, one binary.LittleEndian store at a
// time. The sample-memory path is pinned to it.
func samplesToBytesGo(s []complex128) []byte {
	dst := make([]byte, len(s)*SampleBytes)
	for i, v := range s {
		binary.LittleEndian.PutUint64(dst[i*SampleBytes:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(dst[i*SampleBytes+8:], math.Float64bits(imag(v)))
	}
	return dst
}

// bytesToSamplesGo is the inverse of samplesToBytesGo.
func bytesToSamplesGo(src []byte) []complex128 {
	dst := make([]complex128, len(src)/SampleBytes)
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(src[i*SampleBytes:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(src[i*SampleBytes+8:]))
		dst[i] = complex(re, im)
	}
	return dst
}

// sameSamples reports whether a and b hold the same bits, sample for
// sample.
func sameSamples(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestSamplesRoundTripBitExact pins the bit-transparency of the sample
// encoding, including signed zero and subnormals: samples put on the
// wire from one sample memory and read off it into another come back
// exactly, so the daemon returns exactly the floats the chain computed.
func TestSamplesRoundTripBitExact(t *testing.T) {
	src := rng.New(42)
	in := src.NoiseVector(61, 1)
	in = append(in,
		complex(math.Copysign(0, -1), 0),
		complex(5e-324, -5e-324),
		complex(math.MaxFloat64, -math.MaxFloat64),
	)
	sent := append([]complex128(nil), in...)
	wireOrder(sent)
	wire := bytes.Clone(sampleBytes(sent))
	out := make([]complex128, len(in))
	copy(sampleBytes(out), wire)
	wireOrder(out)
	if !sameSamples(out, in) {
		t.Fatalf("samples did not round-trip bit for bit:\n got %v\nwant %v", out, in)
	}
}

// TestSampleCodecMatchesPortable pins the sample memory's wire bytes
// (sampleBytes after wireOrder: a view on little-endian hosts, a byte
// swap per float64 elsewhere) to samplesToBytesGo byte for byte, and the
// decode (wireOrder over bytes read into the memory) to
// bytesToSamplesGo bit for bit. The samples are random 64-bit patterns,
// so signalling and quiet NaN payloads occur, with ±0, ±Inf, subnormals
// and NaNs of both kinds mixed in; a spare sample past the range must
// come through untouched.
func TestSampleCodecMatchesPortable(t *testing.T) {
	t.Logf("sample codec: littleEndian=%v (wireOrder is a no-op when true, a byte swap otherwise)", littleEndian)
	specials := []uint64{
		0, 1 << 63, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
		0x7ff0000000000001, 0xfff4000000000000, // signalling NaNs
		0x7ff8000000000000, 0xfff8000000000001, // quiet NaNs
	}
	r := rand.New(rand.NewSource(31))
	word := func() float64 {
		if r.Intn(4) == 0 {
			return math.Float64frombits(specials[r.Intn(len(specials))])
		}
		return math.Float64frombits(r.Uint64())
	}
	lengths := make([]int, 0, 35)
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4096)
	spare := complex(7, 7)
	for _, n := range lengths {
		s := make([]complex128, n)
		for i := range s {
			s[i] = complex(word(), word())
		}
		want := samplesToBytesGo(s)

		// Encode: the memory's bytes after wireOrder are the wire's.
		mem := append(append([]complex128(nil), s...), spare)
		wireOrder(mem[:n])
		if got := sampleBytes(mem[:n]); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: encoded sample memory differs from samplesToBytesGo", n)
		}
		if !sameSamples(mem[n:], []complex128{spare}) {
			t.Fatalf("n=%d: encoding wrote the spare sample past the range", n)
		}

		// Decode those bytes read into a fresh memory back.
		mem = make([]complex128, n+1)
		mem[n] = spare
		copy(sampleBytes(mem[:n]), want)
		wireOrder(mem[:n])
		if ws := bytesToSamplesGo(want); !sameSamples(mem[:n], ws) {
			t.Fatalf("n=%d: decoded sample memory differs from bytesToSamplesGo", n)
		}
		if !sameSamples(mem[:n], s) || !sameSamples(mem[n:], []complex128{spare}) {
			t.Fatalf("n=%d: decode did not restore the samples bit for bit, or wrote the spare", n)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	good := SessionParams{
		SampleRateHz: 20e6, BlockSamples: 64, CancelTaps: 8, CNFTaps: 4,
		CancellationDB: 60, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 30,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mutations := map[string]func(*SessionParams){
		"zero rate":        func(p *SessionParams) { p.SampleRateHz = 0 },
		"nan rate":         func(p *SessionParams) { p.SampleRateHz = math.NaN() },
		"zero block":       func(p *SessionParams) { p.BlockSamples = 0 },
		"huge block":       func(p *SessionParams) { p.BlockSamples = MaxFramePayload },
		"zero taps":        func(p *SessionParams) { p.CancelTaps = 0 },
		"huge cnf":         func(p *SessionParams) { p.CNFTaps = 1 << 20 },
		"inf cfo":          func(p *SessionParams) { p.CFOHz = math.Inf(1) },
		"nan cancel":       func(p *SessionParams) { p.CancellationDB = math.NaN() },
		"inf rd":           func(p *SessionParams) { p.RDAttenDB = math.Inf(1) },
		"-inf headroom":    func(p *SessionParams) { p.PAHeadroomDB = math.Inf(-1) },
		"+inf rxovernoise": func(p *SessionParams) { p.RxOverNoiseDB = math.Inf(1) },
	}
	for name, mutate := range mutations {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
}

// readFrame reads one control frame through br as an idle connection
// does, without its deadlines: readHeader, where every type must fit the
// control window, then readPayload. The payload is a view of br's
// buffer, valid until br's next read.
func readFrame(br *bufio.Reader) (typ byte, payload []byte, err error) {
	typ, n, err := readHeader(br, 0, 0) // no frame has type 0
	if err != nil {
		return 0, nil, err
	}
	payload, err = readPayload(br, n)
	return typ, payload, err
}

// FuzzReadFrame asserts the control-frame reader never panics and never
// returns a payload over the control window on arbitrary wire bytes, and
// rejects a frame of a length it does not take (over the window, or of
// the unused type 0 and not empty) without allocating. Every frame it
// parsed, and the raw input itself as one DATA payload when that fits, is then re-emitted
// with writeFrame — each as exactly [length BE32][type][payload] — and
// must read back byte-identical through the window over sources that
// deliver the wire one byte, or half a read, at a time.
func FuzzReadFrame(f *testing.F) {
	var wire bytes.Buffer
	writeFrame(&wire, FrameData, []byte{0, 0, 0, 0, 0, 1, 2, 3, 4})
	f.Add(wire.Bytes())
	f.Add([]byte{0, 0, 0, 0, FrameDone})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		type frame struct {
			typ     byte
			payload []byte
		}
		var src bytes.Reader
		src.Reset(raw)
		br := bufio.NewReaderSize(&src, controlWindow)
		var frames []frame
		for {
			off := len(raw) - src.Len() - br.Buffered()
			typ, payload, err := readFrame(br)
			if errors.Is(err, errFrameLength) {
				rest := raw[off:]
				allocs := testing.AllocsPerRun(5, func() {
					src.Reset(rest)
					br.Reset(&src)
					_, _, err = readFrame(br)
				})
				if !errors.Is(err, errFrameLength) || allocs != 0 {
					t.Fatalf("frame over the window: err %v, %v allocs; want errFrameLength, 0 allocs", err, allocs)
				}
			}
			if err != nil {
				break
			}
			if len(payload) > controlWindow-frameHeaderLen {
				t.Fatalf("payload %d exceeds the %d-byte window", len(payload), controlWindow)
			}
			frames = append(frames, frame{typ, bytes.Clone(payload)})
		}
		if len(raw) <= controlWindow-frameHeaderLen {
			frames = append(frames, frame{FrameData, raw})
		}

		var wire bytes.Buffer
		for _, fr := range frames {
			buf := make([]byte, frameHeaderLen+len(fr.payload))
			copy(buf[frameHeaderLen:], fr.payload)
			start := wire.Len()
			if err := writeFrame(&wire, fr.typ, buf); err != nil {
				t.Fatal(err)
			}
			want := append(binary.BigEndian.AppendUint32(nil, uint32(len(fr.payload))), fr.typ)
			if got := wire.Bytes()[start:]; !bytes.Equal(got, append(want, fr.payload...)) {
				t.Fatalf("writeFrame emitted % x, want [length][type][payload]", got)
			}
		}
		for name, chunked := range map[string]func(io.Reader) io.Reader{
			"one-byte": iotest.OneByteReader, "half": iotest.HalfReader,
		} {
			br := bufio.NewReaderSize(chunked(bytes.NewReader(wire.Bytes())), controlWindow)
			for i, want := range frames {
				typ, payload, err := readFrame(br)
				if err != nil || typ != want.typ || !bytes.Equal(payload, want.payload) {
					t.Fatalf("%s: frame %d read back as type %d, % x, err %v; want type %d, % x",
						name, i, typ, payload, err, want.typ, want.payload)
				}
			}
			if _, _, err := readFrame(br); err != io.EOF {
				t.Fatalf("%s: after %d frames got err %v, want io.EOF", name, len(frames), err)
			}
		}
	})
}
