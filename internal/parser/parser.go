// Package parser implements GMorph's Model Parser (Section 4.2): it
// converts executable models to and from a serialized representation. In
// this implementation the abstract graph carries its layers directly, so
// the parser's job is the checkpoint boundary — saving a trained graph
// (architecture plus weights, keyed by (task_id, op_id) exactly as the
// paper's weight store) to a versioned binary format and reconstructing it.
package parser

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"repro/internal/atomicfile"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Format constants.
const (
	magic = "GMCK"
	// version is the format written by Save. Version 3 added optional int8
	// quantization payloads (Quant8 annotations after Conv2d and Linear
	// parameters, and a graph-level QuantNote after the node tree). Version
	// 4 stores an attention's packed QKV projection as one parameter pair
	// where earlier versions held Q, K and V apart, and writes the
	// annotation of every Conv2d and Linear part of a layer (a transformer
	// block's four linears, an adapter's projection), not only of a bare
	// Conv2d or Linear. Version-2 and -3 checkpoints still load; nothing
	// writes them any more.
	version    = 4
	minVersion = 2

	// encF32 and encF16 tag how parameter tensors are encoded. Save writes
	// only encF32; encF16 (IEEE-754 half precision) is still read, for
	// checkpoints written by earlier versions.
	encF32 = uint32(0)
	encF16 = uint32(1)
)

// ErrBadCheckpoint reports a corrupt or incompatible checkpoint.
var ErrBadCheckpoint = errors.New("parser: bad checkpoint")

// Save writes the graph to w: header, task names, node tree (pre-order),
// layer configs and weights, and a trailing CRC-32 of everything written.
func Save(w io.Writer, g *graph.Graph) error {
	_, err := saveSum(w, g)
	return err
}

// saveSum is Save returning the payload CRC-32 — the value written as the
// trailer and reported by LoadSum as the content checksum.
func saveSum(w io.Writer, g *graph.Graph) (uint32, error) {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := io.WriteString(bw, magic); err != nil {
		return 0, err
	}
	writeU32(bw, version)

	names := make([]int, 0, len(g.TaskNames))
	for id := range g.TaskNames {
		names = append(names, id)
	}
	sort.Ints(names)
	writeU32(bw, uint32(len(names)))
	for _, id := range names {
		writeU32(bw, uint32(id))
		writeString(bw, g.TaskNames[id])
	}

	var writeNode func(n *graph.Node) error
	writeNode = func(n *graph.Node) error {
		writeI32(bw, int32(n.TaskID))
		writeI32(bw, int32(n.OpID))
		writeString(bw, n.OpType)
		writeShape(bw, n.InputShape)
		writeU32(bw, uint32(n.Domain))
		if n.Layer == nil {
			writeString(bw, "")
		} else if err := encodeLayer(bw, n.Layer); err != nil {
			return err
		}
		writeU32(bw, uint32(len(n.Children)))
		for _, c := range n.Children {
			if err := writeNode(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeNode(g.Root); err != nil {
		return 0, err
	}
	writeQuantNote(bw, g.Quant)
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	// CRC of the flushed payload.
	sum := crc.Sum32()
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	_, err := w.Write(tail[:])
	return sum, err
}

// SaveBase64 returns the checkpoint Save writes, base64-encoded with the
// standard alphabet: the form a graph takes inside JSON, on the distributed
// search's wire (and in version-1 memo files).
func SaveBase64(g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// LoadBase64 reads a graph from the form SaveBase64 writes.
func LoadBase64(s string) (*graph.Graph, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: base64: %v", ErrBadCheckpoint, err)
	}
	return LoadBytes(raw)
}

// FormatSum renders a CRC-32 content checksum in the canonical
// "crc32:xxxxxxxx" form used across the serving API.
func FormatSum(crc uint32) string { return fmt.Sprintf("crc32:%08x", crc) }

// Load reads a graph previously written by Save.
func Load(r io.Reader) (*graph.Graph, error) {
	g, _, err := LoadSum(r)
	return g, err
}

// LoadSum is Load returning the checkpoint's content checksum alongside
// the graph: the CRC-32 trailer in "crc32:xxxxxxxx" form. The checksum
// identifies the exact serialized bytes, so two saves of the same weights
// agree and any weight or architecture change produces a new identity —
// the model registry uses it to version deploys and detect changed
// checkpoints on reload.
func LoadSum(r io.Reader) (*graph.Graph, string, error) {
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, "", err
	}
	return loadSum(payload)
}

// LoadBytes is Load over a checkpoint the caller already holds in memory:
// it decodes b in place, without Load's copy of the stream. The graph
// shares no memory with b.
func LoadBytes(b []byte) (*graph.Graph, error) {
	g, _, err := loadSum(b)
	return g, err
}

// loadSum checks a whole checkpoint's CRC-32 trailer and decodes it.
func loadSum(payload []byte) (*graph.Graph, string, error) {
	if len(payload) < len(magic)+8 {
		return nil, "", fmt.Errorf("%w: truncated", ErrBadCheckpoint)
	}
	body, tail := payload[:len(payload)-4], payload[len(payload)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if crc32.ChecksumIEEE(body) != want {
		return nil, "", fmt.Errorf("%w: CRC mismatch", ErrBadCheckpoint)
	}
	g, err := decodeBody(body)
	if err != nil {
		return nil, "", err
	}
	return g, FormatSum(want), nil
}

// decodeBody parses a CRC-validated checkpoint payload (magic through
// quant note, trailer stripped).
func decodeBody(body []byte) (*graph.Graph, error) {
	rd := &reader{buf: body}
	if string(rd.bytes(len(magic))) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	v := rd.u32()
	if v < minVersion || v > version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, v)
	}
	rd.ver = int(v)

	g := &graph.Graph{Heads: map[int]*graph.Node{}, TaskNames: map[int]string{}}
	nTasks := rd.count(8) // each task entry costs at least id + name length
	for i := 0; i < nTasks; i++ {
		id := int(rd.u32())
		g.TaskNames[id] = rd.str()
	}

	var readNode func() (*graph.Node, error)
	readNode = func() (*graph.Node, error) {
		if rd.err != nil {
			return nil, rd.err
		}
		n := &graph.Node{
			TaskID: int(rd.i32()),
			OpID:   int(rd.i32()),
			OpType: rd.str(),
		}
		n.InputShape = rd.shape()
		n.Domain = graph.Domain(rd.u32())
		layer, err := decodeLayer(rd)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		n.Layer = layer
		kids := rd.count(16) // a minimal serialized node is larger than this
		for i := 0; i < kids; i++ {
			c, err := readNode()
			if err != nil {
				return nil, err
			}
			c.Parent = n
			n.Children = append(n.Children, c)
			if c.IsHead() {
				g.Heads[c.TaskID] = c
			}
		}
		return n, nil
	}
	root, err := readNode()
	if err != nil {
		return nil, err
	}
	if rd.ver >= 3 {
		g.Quant = readQuantNote(rd)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, rd.err)
	}
	if rd.off != len(rd.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(rd.buf)-rd.off)
	}
	g.Root = root
	g.RefreshCapacities()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return g, nil
}

// SaveFile writes the graph to path atomically (temp file + rename).
func SaveFile(path string, g *graph.Graph) error {
	return atomicfile.Write(path, func(w io.Writer) error { return Save(w, g) })
}

// LoadFile reads a graph checkpoint from path.
func LoadFile(path string) (*graph.Graph, error) {
	g, _, err := LoadFileSum(path)
	return g, err
}

// LoadFileSum reads a graph checkpoint from path and returns its content
// checksum (see LoadSum).
func LoadFileSum(path string) (*graph.Graph, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return LoadSum(f)
}

// Sum computes the content checksum a graph would have on disk, without
// materializing the checkpoint: Save's byte stream is fed straight into
// the CRC and discarded. It lets the registry assign a stable identity to
// models registered from memory (tests, freshly fused graphs) that
// matches what LoadFileSum would report after a round trip.
func Sum(g *graph.Graph) (string, error) {
	crc, err := saveSum(io.Discard, g)
	if err != nil {
		return "", err
	}
	return FormatSum(crc), nil
}

// --- low-level write helpers ----------------------------------------------
//
// Each helper encodes straight into the bufio.Writer's free space
// (AvailableBuffer) and hands that slice to Write: no scratch array
// escapes to the heap, so encoding allocates per tensor at most, never
// per value.

func writeU32(w *bufio.Writer, v uint32) {
	w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), v))
}

func writeI32(w *bufio.Writer, v int32) { writeU32(w, uint32(v)) }

func writeString(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func writeShape(w *bufio.Writer, s graph.Shape) {
	writeU32(w, uint32(len(s)))
	for _, d := range s {
		writeI32(w, int32(d))
	}
}

func writeU64(w *bufio.Writer, v uint64) {
	w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), v))
}

// writeTensor encodes the values as many at a time as the buffer has room
// for, flushing it when it is full.
func writeTensor(w *bufio.Writer, t *tensor.Tensor) {
	writeU32(w, encF32)
	writeShape(w, graph.Shape(t.Shape()))
	d := t.Data()
	for len(d) > 0 {
		buf := w.AvailableBuffer()
		n := min(len(d), cap(buf)/4)
		if n == 0 {
			// A failed flush stays in w, and Save's own Flush reports it.
			if w.Flush() != nil {
				return
			}
			continue
		}
		buf = buf[:4*n]
		for i, v := range d[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		w.Write(buf)
		d = d[n:]
	}
}

// f16tof32 converts IEEE 754 half precision to float32.
func f16tof32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1F:
		return math.Float32frombits(sign | 0xFF<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// writeParams writes l's parameters, then the int8 annotation of each of
// its Conv2d and Linear parts (quantParts).
func writeParams(w *bufio.Writer, l nn.Layer) {
	ps := l.Params()
	writeU32(w, uint32(len(ps)))
	for _, p := range ps {
		writeString(w, p.Name)
		writeTensor(w, p.Value)
	}
	for _, part := range quantParts(l) {
		if s := nn.QuantSlot(part); s != nil {
			writeQuant8(w, *s)
		}
	}
}

// --- low-level read helpers ------------------------------------------------

type reader struct {
	buf []byte
	off int
	err error
	ver int
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		if r.err == nil {
			r.err = errors.New("unexpected end of checkpoint")
		}
		// Return a small zero buffer so desynced reads cannot trigger huge
		// allocations; callers check r.err before trusting contents.
		if n > 64 || n < 0 {
			n = 64
		}
		return make([]byte, n)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) i32() int32  { return int32(r.u32()) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }

// str validates the length prefix against the remaining buffer before
// slicing, so a corrupt prefix cannot cause a huge allocation.
func (r *reader) str() string {
	n := int(r.u32())
	if r.err == nil && n > len(r.buf)-r.off {
		r.err = fmt.Errorf("string length %d exceeds %d remaining bytes", n, len(r.buf)-r.off)
	}
	if r.err != nil {
		return ""
	}
	return string(r.bytes(n))
}

// count reads an element count and validates it against the remaining
// buffer, given a conservative lower bound on the encoded size of one
// element. Corrupt counts otherwise drive loops for billions of
// iterations even after the underlying reads start failing.
func (r *reader) count(perElem int) int {
	n := int(r.u32())
	if r.err == nil && n > (len(r.buf)-r.off)/perElem {
		r.err = fmt.Errorf("count %d exceeds remaining checkpoint (%d bytes)", n, len(r.buf)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// dim reads a layer dimension, rejecting negative or implausibly large
// values before they reach a constructor's allocator.
func (r *reader) dim() int {
	v := int(r.i32())
	if r.err == nil && (v < 0 || v > 1<<20) {
		r.err = fmt.Errorf("implausible layer dimension %d", v)
	}
	if r.err != nil {
		return 0
	}
	return v
}

// elems validates that a parameter of n elements could still be encoded in
// the remaining buffer (every element costs at least 2 bytes on disk),
// rejecting corrupt dimension products before they reach an allocator.
func (r *reader) elems(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > (len(r.buf)-r.off)/2 {
		r.err = fmt.Errorf("parameter of %d elements exceeds %d remaining bytes", n, len(r.buf)-r.off)
		return false
	}
	return true
}

// mulDims multiplies dimensions with a saturating cap so corrupt values
// cannot overflow into a small product that passes validation.
func mulDims(dims ...int) int {
	p := 1
	for _, d := range dims {
		if d <= 0 {
			return 0
		}
		p *= d
		if p > 1<<40 {
			return 1 << 40
		}
	}
	return p
}

func (r *reader) shape() graph.Shape {
	n := int(r.u32())
	if n > 16 {
		r.err = fmt.Errorf("implausible shape rank %d", n)
		return nil
	}
	s := make(graph.Shape, n)
	for i := range s {
		s[i] = int(r.i32())
	}
	return s
}

// tensorInto reads one stored tensor straight into dst's storage and
// returns the stored element count. The stored shape may differ from dst's;
// when the count differs too, nothing is decoded and the caller reports the
// mismatch. Corrupt encodings, shapes and sizes set r.err.
func (r *reader) tensorInto(dst *tensor.Tensor) int {
	enc := r.u32()
	if enc != encF32 && enc != encF16 {
		r.err = fmt.Errorf("unknown tensor encoding %d", enc)
		return 0
	}
	shape := r.shape()
	if r.err != nil {
		return 0
	}
	size := 1
	for _, d := range shape {
		if d < 0 || d > 1<<24 {
			r.err = fmt.Errorf("implausible tensor dim %d", d)
			return 0
		}
		size *= d
		if size > 1<<40 { // saturate before the product can overflow
			size = 1 << 40
		}
	}
	width := 4
	if enc == encF16 {
		width = 2
	}
	if size > (len(r.buf)-r.off)/width {
		r.err = errors.New("tensor larger than remaining checkpoint")
		return 0
	}
	d := dst.Data()
	if size != len(d) {
		return size
	}
	b := r.bytes(size * width)
	if enc == encF16 {
		for i := range d {
			d[i] = f16tof32(binary.LittleEndian.Uint16(b[2*i:]))
		}
		return size
	}
	for i := range d {
		d[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return size
}

// readParams loads what writeParams wrote into an already-constructed
// layer, verifying parameter count, names, and shapes. Streams before
// version 4 hold an attention's Q, K and V projections as three D -> D
// linears where version 4 holds the packed QKV; they are read into
// temporaries and packed. Before version 4 only a Conv2d or Linear itself
// carries an annotation block (version 3), never a part of a larger layer.
func (r *reader) readParams(l nn.Layer) error {
	ps := l.Params()
	var attn *nn.MultiHeadAttention
	switch v := l.(type) {
	case *nn.MultiHeadAttention:
		attn = v
	case *nn.TransformerBlock:
		attn = v.Attn
	}
	var qkv []*nn.Linear
	if attn != nil && r.ver < 4 {
		var split []*nn.Param
		for i := 0; i < 3; i++ {
			part := nn.NewLinear(nil, attn.D, attn.D) // read from the stream below
			qkv = append(qkv, part)
			split = append(split, part.Params()...)
		}
		at := slices.Index(ps, attn.QKV.Weight)
		ps = slices.Replace(ps, at, at+2, split...)
	}
	if n := int(r.u32()); n != len(ps) {
		return fmt.Errorf("param count %d, want %d", n, len(ps))
	}
	for _, p := range ps {
		name := r.str()
		if name != p.Name {
			return fmt.Errorf("param name %q, want %q", name, p.Name)
		}
		if n := r.tensorInto(p.Value); r.err != nil {
			return r.err
		} else if n != p.Value.Size() {
			return fmt.Errorf("param %q size %d, want %d", name, n, p.Value.Size())
		}
	}
	for i, part := range qkv {
		attn.PackQKVBand(i, part.Weight.Value.Data(), part.Bias.Value.Data())
	}
	for _, part := range quantParts(l) {
		if s := nn.QuantSlot(part); s != nil && (r.ver >= 4 || part == l) {
			*s = r.quant8()
		}
	}
	return r.err
}
