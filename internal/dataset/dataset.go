// Package dataset provides the relational substrate used throughout the
// Guardrail reproduction: an in-memory, column-major, dictionary-encoded
// relation of categorical attributes.
//
// Every attribute value is interned into a per-column dictionary and stored
// as an int32 code. Code -1 is the missing/NaN sentinel produced by the
// coerce error-handling strategy. All synthesis, structure learning and
// query execution operate on codes; strings only appear at the boundary
// (CSV I/O, DSL pretty-printing).
package dataset

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// Missing is the code used for a missing (NaN) cell, produced by the coerce
// error-handling strategy or by CSV cells equal to the empty string.
const Missing int32 = -1

// missingText is how Value renders the Missing code.
const missingText = "NaN"

// Dict interns the string values of a single attribute.
type Dict struct {
	byValue map[string]int32
	values  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byValue: make(map[string]int32)}
}

// Intern returns the code for s, adding it to the dictionary if new.
func (d *Dict) Intern(s string) int32 {
	if c, ok := d.byValue[s]; ok {
		return c
	}
	c := int32(len(d.values))
	d.byValue[s] = c
	d.values = append(d.values, s)
	return c
}

// InternBytes is Intern for a byte slice. It allocates only when b is a
// new value.
func (d *Dict) InternBytes(b []byte) int32 {
	if c, ok := d.byValue[string(b)]; ok {
		return c
	}
	return d.Intern(string(b))
}

// Lookup returns the code for s and whether it is present.
func (d *Dict) Lookup(s string) (int32, bool) {
	c, ok := d.byValue[s]
	return c, ok
}

// Value returns the string for code c. The Missing code renders as "NaN".
func (d *Dict) Value(c int32) string {
	if c == Missing {
		return missingText
	}
	return d.values[c]
}

// Len reports the number of distinct values interned so far.
func (d *Dict) Len() int { return len(d.values) }

// clone returns a deep copy of the dictionary.
func (d *Dict) clone() *Dict {
	nd := &Dict{
		byValue: make(map[string]int32, len(d.byValue)),
		values:  append([]string(nil), d.values...),
	}
	for k, v := range d.byValue {
		nd.byValue[k] = v
	}
	return nd
}

// Relation is an in-memory categorical table. The zero value is not usable;
// construct one with New or FromCSV.
type Relation struct {
	name  string
	attrs []string
	index map[string]int
	dicts []*Dict
	cols  [][]int32
	nrows int
}

// New creates an empty relation with the given attribute names.
func New(name string, attrs []string) *Relation {
	r := &Relation{
		name:  name,
		attrs: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
		dicts: make([]*Dict, len(attrs)),
		cols:  make([][]int32, len(attrs)),
	}
	for i, a := range attrs {
		r.index[a] = i
		r.dicts[i] = NewDict()
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// SetName renames the relation.
func (r *Relation) SetName(n string) { r.name = n }

// NumRows reports the number of rows.
func (r *Relation) NumRows() int { return r.nrows }

// NumAttrs reports the number of attributes.
func (r *Relation) NumAttrs() int { return len(r.attrs) }

// Attrs returns the attribute names (do not mutate).
func (r *Relation) Attrs() []string { return r.attrs }

// Attr returns the name of attribute i.
func (r *Relation) Attr(i int) string { return r.attrs[i] }

// AttrIndex returns the position of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	if i, ok := r.index[name]; ok {
		return i
	}
	return -1
}

// Dict returns the dictionary of attribute i.
func (r *Relation) Dict(i int) *Dict { return r.dicts[i] }

// Cardinality reports the number of distinct interned values of attribute i.
func (r *Relation) Cardinality(i int) int { return r.dicts[i].Len() }

// Column returns the code column for attribute i (do not mutate).
func (r *Relation) Column(i int) []int32 { return r.cols[i] }

// Code returns the code at (row, col).
func (r *Relation) Code(row, col int) int32 { return r.cols[col][row] }

// SetCode overwrites the code at (row, col).
func (r *Relation) SetCode(row, col int, c int32) { r.cols[col][row] = c }

// Value returns the string value at (row, col).
func (r *Relation) Value(row, col int) string {
	return r.dicts[col].Value(r.cols[col][row])
}

// Intern interns s into attribute col's dictionary and returns its code.
func (r *Relation) Intern(col int, s string) int32 { return r.dicts[col].Intern(s) }

// AppendRow appends one row of string values; len(vals) must equal NumAttrs.
// Empty strings intern as the Missing sentinel.
func (r *Relation) AppendRow(vals []string) error {
	if len(vals) != len(r.attrs) {
		return fmt.Errorf("dataset: row has %d values, relation has %d attributes", len(vals), len(r.attrs))
	}
	for i, v := range vals {
		if v == "" {
			r.cols[i] = append(r.cols[i], Missing)
			continue
		}
		r.cols[i] = append(r.cols[i], r.dicts[i].Intern(v))
	}
	r.nrows++
	return nil
}

// AppendCodes appends one row of pre-encoded codes. The caller is
// responsible for the codes being valid for each column's dictionary.
func (r *Relation) AppendCodes(codes []int32) error {
	if len(codes) != len(r.attrs) {
		return fmt.Errorf("dataset: row has %d codes, relation has %d attributes", len(codes), len(r.attrs))
	}
	for i, c := range codes {
		r.cols[i] = append(r.cols[i], c)
	}
	r.nrows++
	return nil
}

// Row copies row i's codes into dst (allocated if nil) and returns it.
func (r *Relation) Row(i int, dst []int32) []int32 {
	if cap(dst) < len(r.attrs) {
		dst = make([]int32, len(r.attrs))
	}
	dst = dst[:len(r.attrs)]
	for c := range r.cols {
		dst[c] = r.cols[c][i]
	}
	return dst
}

// RowStrings returns row i as decoded strings.
func (r *Relation) RowStrings(i int) []string {
	out := make([]string, len(r.attrs))
	for c := range r.cols {
		out[c] = r.dicts[c].Value(r.cols[c][i])
	}
	return out
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	nr := &Relation{
		name:  r.name,
		attrs: append([]string(nil), r.attrs...),
		index: make(map[string]int, len(r.index)),
		dicts: make([]*Dict, len(r.dicts)),
		cols:  make([][]int32, len(r.cols)),
		nrows: r.nrows,
	}
	for k, v := range r.index {
		nr.index[k] = v
	}
	for i := range r.dicts {
		nr.dicts[i] = r.dicts[i].clone()
		nr.cols[i] = append([]int32(nil), r.cols[i]...)
	}
	return nr
}

// SelectRows returns a new relation containing the given rows, sharing
// dictionaries by deep copy so the result is independent.
func (r *Relation) SelectRows(rows []int) *Relation {
	nr := &Relation{
		name:  r.name,
		attrs: append([]string(nil), r.attrs...),
		index: make(map[string]int, len(r.index)),
		dicts: make([]*Dict, len(r.dicts)),
		cols:  make([][]int32, len(r.cols)),
		nrows: len(rows),
	}
	for k, v := range r.index {
		nr.index[k] = v
	}
	for i := range r.dicts {
		nr.dicts[i] = r.dicts[i].clone()
		col := make([]int32, len(rows))
		for j, row := range rows {
			col[j] = r.cols[i][row]
		}
		nr.cols[i] = col
	}
	return nr
}

// Split partitions the relation into train/test by shuffling rows with the
// given seed; frac is the fraction of rows assigned to train.
func (r *Relation) Split(frac float64, seed int64) (train, test *Relation) {
	perm := rand.New(rand.NewSource(seed)).Perm(r.nrows)
	k := int(float64(r.nrows) * frac)
	if k < 0 {
		k = 0
	}
	if k > r.nrows {
		k = r.nrows
	}
	return r.SelectRows(perm[:k]), r.SelectRows(perm[k:])
}

// FromCSV reads a relation from CSV with a header row. Empty cells are
// Missing.
func FromCSV(rd io.Reader, name string) (*Relation, error) {
	cr := NewCSVReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	attrs := make([]string, len(header))
	for i, h := range header {
		attrs[i] = string(h)
	}
	rel := New(name, attrs)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row: %w", err)
		}
		if len(rec) != len(attrs) {
			return nil, fmt.Errorf("dataset: CSV row has %d fields, header has %d", len(rec), len(attrs))
		}
		for i, v := range rec {
			c := Missing
			if len(v) > 0 {
				c = rel.dicts[i].InternBytes(v)
			}
			rel.cols[i] = append(rel.cols[i], c)
		}
		rel.nrows++
	}
	return rel, nil
}

// ToCSV writes the relation as CSV with a header row. Missing cells
// render as "NaN", as Value renders them.
func (r *Relation) ToCSV(w io.Writer) error {
	cw := NewCSVWriter(w, r.dicts, missingText)
	if err := cw.WriteStrings(r.attrs); err != nil {
		return err
	}
	row := make([]int32, len(r.attrs))
	for i := 0; i < r.nrows; i++ {
		if err := cw.WriteCodes(r.Row(i, row)); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// String renders a compact summary for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Relation(%s: %d rows, %d attrs: %s)", r.name, r.nrows, len(r.attrs), strings.Join(r.attrs, ","))
	return b.String()
}
