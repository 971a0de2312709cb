package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
)

// The batch CSV codec shared by FromCSV, ToCSV and core.Guard.StreamCSV.
//
// CSVReader accepts exactly the dialect of an encoding/csv Reader with
// FieldsPerRecord = -1 and every other option at its default: comma
// separator, no lazy quotes, no comment character, no leading-space
// trimming. It returns the same records and, on malformed input, the same
// *csv.ParseError (StartLine, Line, Column, Err). CSVWriter emits the
// bytes an encoding/csv Writer would. Both work over reused buffers, so
// the per-row cost is free of allocations once every value is interned.

// csvBufSize is the reader's and writer's buffer size.
const csvBufSize = 64 << 10

// CSVReader scans CSV records as byte slices.
type CSVReader struct {
	r       *bufio.Reader
	raw     []byte   // line assembly when a line outgrows r's buffer
	rec     []byte   // unquoted bytes of every field of the current record
	ends    []int    // end offset in rec of each field
	fields  [][]byte // the record handed to the caller, sliced from rec or the line
	numLine int
}

// NewCSVReader returns a reader scanning r.
func NewCSVReader(r io.Reader) *CSVReader {
	return &CSVReader{r: bufio.NewReaderSize(r, csvBufSize)}
}

// Read returns the next record. The fields alias the reader's buffers
// and are valid only until the next call. At end of input it returns
// io.EOF; malformed input yields a *csv.ParseError.
func (r *CSVReader) Read() ([][]byte, error) {
	// Read the first line, skipping empty ones.
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = r.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue
		}
		break
	}
	if errRead == io.EOF {
		return nil, errRead
	}
	r.fields = r.fields[:0]
	if errRead == nil && bytes.IndexByte(line, '"') < 0 {
		// No quotes: the fields are the comma-separated pieces of line.
		line = line[:len(line)-lengthNL(line)]
		for {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				r.fields = append(r.fields, line[:len(line):len(line)])
				return r.fields, nil
			}
			r.fields = append(r.fields, line[:i:i])
			line = line[i+1:]
		}
	}

	var err error
	recLine := r.numLine
	r.rec = r.rec[:0]
	r.ends = r.ends[:0]
	line0, col := r.numLine, 1 // position of the next byte of line
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Non-quoted field: runs to the next comma or the line end.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			r.rec = append(r.rec, field...)
			r.ends = append(r.ends, len(r.rec))
			if i < 0 {
				break parseField
			}
			line = line[i+1:]
			col += i + 1
			continue parseField
		}
		// Quoted field: may span lines; `""` is an escaped quote.
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				r.rec = append(r.rec, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					r.rec = append(r.rec, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					col++
					r.ends = append(r.ends, len(r.rec))
					continue parseField
				case lengthNL(line) == len(line):
					r.ends = append(r.ends, len(r.rec))
					break parseField
				default:
					err = &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0:
				// The field continues on the next line.
				r.rec = append(r.rec, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = r.readLine()
				if len(line) > 0 {
					line0++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// Input ended inside the quotes.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: line0, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				r.ends = append(r.ends, len(r.rec))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	if err != nil {
		return nil, err
	}
	prev := 0
	for _, end := range r.ends {
		r.fields = append(r.fields, r.rec[prev:end:end])
		prev = end
	}
	return r.fields, nil
}

// readLine returns the next line with its trailing newline, "\r\n"
// normalized to "\n" and a final "\r" before end of input dropped. It
// returns io.EOF only when no bytes remain. The line is valid until the
// next call.
func (r *CSVReader) readLine() ([]byte, error) {
	line, err := r.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.raw = append(r.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.r.ReadSlice('\n')
			r.raw = append(r.raw, line...)
		}
		line = r.raw
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	r.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the length of b's trailing newline, 0 or 1.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// CSVWriter writes dictionary-encoded rows as CSV. Each distinct
// (column, code) is rendered once, on first use, by an encoding/csv
// Writer, so quoting is that package's byte for byte; rows are then
// assembled from the rendered cells. The cache follows the dictionaries
// as they grow, so values interned between rows render too.
type CSVWriter struct {
	w       io.Writer
	dicts   []*Dict
	missing string // rendering of the Missing code
	buf     []byte
	err     error

	cells [][]cellSpan // per column, indexed by code+1 (Missing at 0)
	arena []byte       // rendered cell bytes

	one      [1]string
	render   *csv.Writer // renders one-field records into rendered
	rendered bytes.Buffer
}

// cellSpan locates one rendered cell in the arena.
type cellSpan struct {
	lo, hi int
	ok     bool
}

// NewCSVWriter returns a writer of rows whose column i is coded by
// dicts[i]; the Missing code renders as missing.
func NewCSVWriter(w io.Writer, dicts []*Dict, missing string) *CSVWriter {
	cw := &CSVWriter{
		w:       w,
		dicts:   dicts,
		missing: missing,
		buf:     make([]byte, 0, csvBufSize),
		cells:   make([][]cellSpan, len(dicts)),
	}
	cw.render = csv.NewWriter(&cw.rendered)
	return cw
}

// WriteStrings writes one record of literal strings, such as a header.
func (w *CSVWriter) WriteStrings(rec []string) error {
	for i, s := range rec {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = append(w.buf, w.renderCell(s)...)
	}
	return w.endRow()
}

// WriteCodes writes one row; codes[i] must be a code of dicts[i] or
// Missing.
func (w *CSVWriter) WriteCodes(codes []int32) error {
	for i, c := range codes {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		k := int(c) + 1
		col := w.cells[i]
		if k >= len(col) || !col[k].ok {
			w.fill(i, c)
			col = w.cells[i]
		}
		w.buf = append(w.buf, w.arena[col[k].lo:col[k].hi]...)
	}
	return w.endRow()
}

// fill renders code c of column i into the cache.
func (w *CSVWriter) fill(i int, c int32) {
	k := int(c) + 1
	if k >= len(w.cells[i]) {
		n := w.dicts[i].Len() + 1
		w.cells[i] = append(w.cells[i], make([]cellSpan, n-len(w.cells[i]))...)
	}
	v := w.missing
	if c != Missing {
		v = w.dicts[i].Value(c)
	}
	lo := len(w.arena)
	w.arena = append(w.arena, w.renderCell(v)...)
	w.cells[i][k] = cellSpan{lo: lo, hi: len(w.arena), ok: true}
}

// renderCell returns s as encoding/csv writes it as a field. The result
// is valid until the next call.
func (w *CSVWriter) renderCell(s string) []byte {
	w.rendered.Reset()
	w.one[0] = s
	// Both calls write only to the bytes.Buffer, which cannot fail.
	_ = w.render.Write(w.one[:])
	w.render.Flush()
	b := w.rendered.Bytes()
	return b[:len(b)-1] // drop the record's "\n"
}

// endRow terminates the row and writes the buffer out once it is half
// full, leaving the other half for the next row so that the buffer
// rarely has to grow.
func (w *CSVWriter) endRow() error {
	w.buf = append(w.buf, '\n')
	if len(w.buf) >= cap(w.buf)/2 {
		return w.Flush()
	}
	return w.err
}

// Flush writes any buffered rows to the underlying writer. A write error
// is sticky: it is returned by every later call.
func (w *CSVWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		n, err := w.w.Write(w.buf)
		if err == nil && n < len(w.buf) {
			err = io.ErrShortWrite
		}
		w.err = err
		w.buf = w.buf[:0]
	}
	return w.err
}
