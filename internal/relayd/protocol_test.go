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

// TestSamplesRoundTripBitExact pins the bit-transparency of the sample
// encoding, including signed zero and subnormals: the daemon must return
// exactly the floats the chain computed.
func TestSamplesRoundTripBitExact(t *testing.T) {
	src := rng.New(42)
	in := src.NoiseVector(61, 1)
	in = append(in,
		complex(math.Copysign(0, -1), 0),
		complex(5e-324, -5e-324),
		complex(math.MaxFloat64, -math.MaxFloat64),
	)
	raw := make([]byte, len(in)*SampleBytes)
	samplesToBytes(raw, in)
	out := make([]complex128, len(in))
	bytesToSamples(out, raw)
	for i := range in {
		if math.Float64bits(real(in[i])) != math.Float64bits(real(out[i])) ||
			math.Float64bits(imag(in[i])) != math.Float64bits(imag(out[i])) {
			t.Fatalf("sample %d: %v round-tripped to %v (bit-exact required)", i, in[i], out[i])
		}
	}
}

// TestSampleCodecMatchesPortable pins the dispatching codec (a memory
// copy on little-endian hosts, the portable bodies elsewhere) to the
// portable bodies byte for byte, in both directions. The samples are
// random 64-bit patterns, so signalling and quiet NaN payloads occur,
// with ±0, ±Inf, subnormals and NaNs of both kinds mixed in; the byte
// side sits at offset 0 and at offset frameHeaderLen, where a frame's
// payload starts, so an unaligned window is covered too.
func TestSampleCodecMatchesPortable(t *testing.T) {
	t.Logf("sample codec: littleEndian=%v (memory copy when true, portable bodies otherwise)", littleEndian)
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
	for _, n := range lengths {
		for _, off := range []int{0, frameHeaderLen} {
			s := make([]complex128, n)
			for i := range s {
				s[i] = complex(word(), word())
			}
			// Encode into frames prefilled alike, so a byte written
			// outside the sample range, or one left unwritten, differs.
			got, want := make([]byte, off+n*SampleBytes+8), make([]byte, off+n*SampleBytes+8)
			for i := range got {
				got[i], want[i] = 0xa5, 0xa5
			}
			samplesToBytes(got[off:off+n*SampleBytes], s)
			samplesToBytesGo(want[off:off+n*SampleBytes], s)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d offset %d: samplesToBytes differs from samplesToBytesGo", n, off)
			}
			// Decode that encoding back, one spare sample past the range.
			src := want[off : off+n*SampleBytes]
			gs, ws := make([]complex128, n+1), make([]complex128, n+1)
			gs[n], ws[n] = complex(7, 7), complex(7, 7)
			bytesToSamples(gs[:n], src)
			bytesToSamplesGo(ws[:n], src)
			for i := range gs {
				if math.Float64bits(real(gs[i])) != math.Float64bits(real(ws[i])) ||
					math.Float64bits(imag(gs[i])) != math.Float64bits(imag(ws[i])) {
					t.Fatalf("n=%d offset %d: sample %d decodes to %#x/%#x, portable %#x/%#x", n, off, i,
						math.Float64bits(real(gs[i])), math.Float64bits(imag(gs[i])),
						math.Float64bits(real(ws[i])), math.Float64bits(imag(ws[i])))
				}
			}
		}
	}
}

// BenchmarkSampleCodec times the codec on one served 4096-sample block:
// encode is a DATA payload's worth of samples into a frame, decode an
// OUT payload back, both at the payload's unaligned frame offset.
func BenchmarkSampleCodec(b *testing.B) {
	const n = 4096
	s := rng.New(3).NoiseVector(n, 1)
	frame := make([]byte, frameHeaderLen+n*SampleBytes)
	payload := frame[frameHeaderLen:]
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(n * SampleBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			samplesToBytes(payload, s)
		}
	})
	b.Run("decode", func(b *testing.B) {
		samplesToBytes(payload, s)
		out := make([]complex128, n)
		b.SetBytes(n * SampleBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bytesToSamples(out, payload)
		}
	})
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

// FuzzReadFrame asserts the frame reader never panics and never returns
// a payload over its window on arbitrary wire bytes, and rejects a frame
// over the window without allocating. Every frame it parsed, and the raw
// input itself as one DATA payload when that fits, is then re-emitted
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
			if errors.Is(err, errFrameTooLarge) {
				rest := raw[off:]
				allocs := testing.AllocsPerRun(5, func() {
					src.Reset(rest)
					br.Reset(&src)
					_, _, err = readFrame(br)
				})
				if !errors.Is(err, errFrameTooLarge) || allocs != 0 {
					t.Fatalf("frame over the window: err %v, %v allocs; want errFrameTooLarge, 0 allocs", err, allocs)
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
