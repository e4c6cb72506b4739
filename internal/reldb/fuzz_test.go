package reldb

import (
	"bytes"
	"testing"
)

// FuzzValueRoundTrip asserts the snapshot/WAL value codec is stable:
// encoding any well-formed Value and decoding it back must reproduce the
// identical byte encoding (byte comparison sidesteps NaN != NaN), with no
// decoder error and no panic.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(0), 0.0, "")
	f.Add(uint8(1), int64(-1), 0.0, "")
	f.Add(uint8(2), int64(0), 3.5, "")
	f.Add(uint8(3), int64(0), 0.0, "MPI_Send")
	f.Add(uint8(4), int64(1), 0.0, "")
	f.Add(uint8(5), int64(1721212121212121212), 0.0, "")
	f.Add(uint8(6), int64(0), 0.0, "\x00\xff raw bytes \xfe")
	f.Fuzz(func(t *testing.T, tag uint8, i int64, fv float64, s string) {
		var v Value
		switch tag % 7 {
		case 0:
			v = Null
		case 1:
			v = Value{T: TInt, I: i}
		case 2:
			v = Value{T: TFloat, F: fv}
		case 3:
			v = Value{T: TString, S: s}
		case 4:
			v = Value{T: TBool, I: i & 1}
		case 5:
			v = Value{T: TTime, I: i}
		case 6:
			v = Value{T: TBytes, S: s}
		}

		var enc bytes.Buffer
		putValue(&enc, v)
		encoded := append([]byte(nil), enc.Bytes()...)

		d := &reader{b: encoded}
		got := d.value()
		if d.err != nil {
			t.Fatalf("decode %+v (bytes %x): %v", v, encoded, d.err)
		}
		if got.T != v.T {
			t.Fatalf("type changed in round trip: %v -> %v", v.T, got.T)
		}

		var re bytes.Buffer
		putValue(&re, got)
		if !bytes.Equal(encoded, re.Bytes()) {
			t.Fatalf("round trip changed encoding: %x -> %x (value %+v)", encoded, re.Bytes(), got)
		}
	})
}

// FuzzValueDecode feeds arbitrary bytes to the value decoder: corrupt
// WAL/snapshot input must surface as reader.err, never as a panic.
func FuzzValueDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0x80})
	f.Add([]byte{3, 0xff, 0xff, 0xff})
	f.Add([]byte{99, 1, 2, 3})
	for _, in := range hugeLengthInputs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &reader{b: data}
		_ = d.value()
	})
}

// hugeLengthInputs are string values whose declared length no input could
// back: (1<<63)-1 and 1<<32-1 bytes. Decoding them once allocated the
// declared length up front and panicked.
var hugeLengthInputs = [][]byte{
	{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f},
}

func TestValueDecodeHugeLength(t *testing.T) {
	for _, in := range hugeLengthInputs {
		d := &reader{b: in}
		if v := d.value(); d.err == nil {
			t.Errorf("decode %x = %+v, want an error", in, v)
		}
	}
}
