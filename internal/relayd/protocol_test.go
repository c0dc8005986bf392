package relayd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
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
