package mesh

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// WriteOFF writes the mesh in the Object File Format used by most mesh
// processing toolchains (including CGAL, which the paper's implementation
// relied on). Faces with more than three vertices are never produced.
func (m *Mesh) WriteOFF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "OFF\n%d %d 0\n", len(m.Vertices), len(m.Faces)); err != nil {
		return err
	}
	return m.writeLines(bw)
}

// writeLines writes the vertex and face lines OFF and PLY share, then
// flushes: "x y z" with each coordinate as fmt's %g prints it, and
// "3 i j k". Each line is appended to the writer's free buffer with strconv
// rather than formatted by fmt, byte-identically.
func (m *Mesh) writeLines(bw *bufio.Writer) error {
	for _, v := range m.Vertices {
		b := strconv.AppendFloat(bw.AvailableBuffer(), v.X, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v.Y, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v.Z, 'g', -1, 64)
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	for _, f := range m.Faces {
		b := append(bw.AvailableBuffer(), '3')
		for _, i := range f {
			b = strconv.AppendInt(append(b, ' '), int64(i), 10)
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadOFF parses an OFF file. Polygonal faces with more than three vertices
// are fan-triangulated. Comment lines (#...) and blank lines are skipped.
func ReadOFF(r io.Reader) (*Mesh, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	next := func() (string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}

	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("mesh: reading OFF header: %w", err)
	}
	if header != "OFF" {
		return nil, fmt.Errorf("mesh: not an OFF file (header %q)", header)
	}

	countLine, err := next()
	if err != nil {
		return nil, fmt.Errorf("mesh: reading OFF counts: %w", err)
	}
	var nv, nf, ne int
	if _, err := fmt.Sscan(countLine, &nv, &nf, &ne); err != nil {
		return nil, fmt.Errorf("mesh: parsing OFF counts %q: %w", countLine, err)
	}
	if nv < 0 || nf < 0 {
		return nil, fmt.Errorf("mesh: negative OFF counts %d %d", nv, nf)
	}

	m := New(nv, nf)
	for i := 0; i < nv; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("mesh: reading vertex %d: %w", i, err)
		}
		var x, y, z float64
		if _, err := fmt.Sscan(line, &x, &y, &z); err != nil {
			return nil, fmt.Errorf("mesh: parsing vertex %d %q: %w", i, line, err)
		}
		m.Vertices = append(m.Vertices, geom.V(x, y, z))
	}
	for i := 0; i < nf; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("mesh: reading face %d: %w", i, err)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("mesh: short face line %q", line)
		}
		var k int
		if _, err := fmt.Sscan(fields[0], &k); err != nil || k < 3 || len(fields) < 1+k {
			return nil, fmt.Errorf("mesh: bad face line %q", line)
		}
		idx := make([]int32, k)
		for j := 0; j < k; j++ {
			var v int
			if _, err := fmt.Sscan(fields[1+j], &v); err != nil {
				return nil, fmt.Errorf("mesh: bad face index in %q: %w", line, err)
			}
			if v < 0 || v >= nv {
				return nil, fmt.Errorf("mesh: face index %d out of range [0,%d)", v, nv)
			}
			idx[j] = int32(v)
		}
		for j := 1; j+1 < k; j++ {
			m.Faces = append(m.Faces, Face{idx[0], idx[j], idx[j+1]})
		}
	}
	return m, nil
}
