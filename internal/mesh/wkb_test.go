package mesh

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// TestWriteWKBGolden pins the exact little-endian bytes of the WKB export
// for the tetrahedron on four corners of the cube [-1, 1]³ (Tetrahedron(√3)):
// a POLYHEDRALSURFACE Z header, then per face a POLYGON Z with one closed
// four-point ring. 000000000000f03f is 1.0 and 000000000000f0bf is -1.0.
func TestWriteWKBGolden(t *testing.T) {
	const want = `
01 f7030000 04000000
01 eb030000 01000000 04000000
	000000000000f03f 000000000000f03f 000000000000f03f
	000000000000f03f 000000000000f0bf 000000000000f0bf
	000000000000f0bf 000000000000f03f 000000000000f0bf
	000000000000f03f 000000000000f03f 000000000000f03f
01 eb030000 01000000 04000000
	000000000000f03f 000000000000f03f 000000000000f03f
	000000000000f0bf 000000000000f0bf 000000000000f03f
	000000000000f03f 000000000000f0bf 000000000000f0bf
	000000000000f03f 000000000000f03f 000000000000f03f
01 eb030000 01000000 04000000
	000000000000f03f 000000000000f03f 000000000000f03f
	000000000000f0bf 000000000000f03f 000000000000f0bf
	000000000000f0bf 000000000000f0bf 000000000000f03f
	000000000000f03f 000000000000f03f 000000000000f03f
01 eb030000 01000000 04000000
	000000000000f03f 000000000000f0bf 000000000000f0bf
	000000000000f0bf 000000000000f0bf 000000000000f03f
	000000000000f0bf 000000000000f03f 000000000000f0bf
	000000000000f03f 000000000000f0bf 000000000000f0bf
`
	var buf bytes.Buffer
	if err := Tetrahedron(math.Sqrt(3)).WriteWKB(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(buf.Bytes()), strings.Join(strings.Fields(want), ""); got != want {
		t.Errorf("WriteWKB:\n%s\nwant:\n%s", got, want)
	}
}

func TestWKBHeaderShape(t *testing.T) {
	m := Tetrahedron(1)
	var buf bytes.Buffer
	if err := m.WriteWKB(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if b[0] != 1 {
		t.Error("not little endian")
	}
	if typ := binary.LittleEndian.Uint32(b[1:5]); typ != 1015 {
		t.Errorf("type = %d, want 1015 (POLYHEDRALSURFACE Z)", typ)
	}
	if n := binary.LittleEndian.Uint32(b[5:9]); n != 4 {
		t.Errorf("patches = %d, want 4", n)
	}
	// Each patch: 1 + 4 + 4 + 4 + 4*24 bytes.
	want := 9 + 4*(1+4+4+4+96)
	if len(b) != want {
		t.Errorf("blob size = %d, want %d", len(b), want)
	}
}
