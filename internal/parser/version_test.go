package parser

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/testutil"
)

// TestLoadAcceptsVersion2 keeps the pre-quantization format loadable:
// checkpoints written before version 3 existed must keep working. The
// fixture is the version-2 encoding of TinyMultiDNN(22, TinyFace(21, 4, 2)),
// written by the last release that could still emit that format.
func TestLoadAcceptsVersion2(t *testing.T) {
	g := testutil.TinyMultiDNN(22, testutil.TinyFace(21, 4, 2))
	g2, err := LoadFile("testdata/v2.gmck")
	if err != nil {
		t.Fatalf("load v2: %v", err)
	}
	if g2.NodeCount() != g.NodeCount() {
		t.Fatalf("node count %d != %d", g2.NodeCount(), g.NodeCount())
	}
	want, got := g.Params(), g2.Params()
	if len(want) != len(got) {
		t.Fatalf("param count %d != %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i].Value.Data(), got[i].Value.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("param %q diverges at %d", want[i].Name, j)
			}
		}
	}
	if g2.Quant != nil {
		t.Fatal("v2 checkpoint produced a quant note")
	}
}

// TestLoadRejectsUnknownVersion patches the version field past the current
// one (with the CRC refixed so the check is reached) and expects a clean
// rejection.
func TestLoadRejectsUnknownVersion(t *testing.T) {
	ds := testutil.TinyFace(25, 4, 2)
	g := testutil.TinyMultiDNN(26, ds)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	body := append([]byte(nil), raw[:len(raw)-4]...)
	binary.LittleEndian.PutUint32(body[len(magic):], version+1)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	if _, err := Load(bytes.NewReader(append(body, tail[:]...))); err == nil {
		t.Fatal("future version accepted")
	}
}
