package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// refFromCSV is FromCSV as it was on encoding/csv, kept as the oracle
// the byte-level reader is checked against.
func refFromCSV(rd io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	rel := New(name, header)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: CSV row has %d fields, header has %d", len(rec), len(header))
		}
		if err := rel.AppendRow(rec); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// refToCSV is ToCSV as it was on encoding/csv: csv.Writer over
// RowStrings.
func refToCSV(r *Relation, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.attrs); err != nil {
		return err
	}
	for i := 0; i < r.nrows; i++ {
		if err := cw.Write(r.RowStrings(i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvSeeds covers the dialect's corners: quoting, line endings, blank
// lines, malformed quotes, ragged rows and degenerate inputs.
var csvSeeds = []string{
	"",
	"a,b\n",
	"a,b",
	"a,b\n1,2\n3,4\n",
	"a,b\n1,2\n3,4",
	"a,b\n\"x,y\",\"say \"\"hi\"\"\"\n\"multi\nline\",z\n",
	"a,b\r\n1,2\r\n\"q\r\nr\",3\r\n",
	"a,b\r1,2\r",
	"a,b\n1,2\r",
	"a,b\n\n\n1,2\n\r\n3,4\n\n",
	"a,b\n1,x\"y\n",
	"a,b\n\"1\"x,2\n",
	"a,b\n1,\"open\n",
	"a,b\n1,\"open\nmore\nlines",
	"a,b\n1\n",
	"a,b\n1,2,3\n",
	"a,b\n,\n,x\n",
	"a,b\n\\.,\\.\n",
	"a,b\n x,\ty\n\u00a0z,w\n",
	"a,b\nNaN,\nNaN,NaN\n",
	"a,a\n1,2\n",
	"\"\"\n\"\"\n\n",
	"a\n\"\"\"\"\n\"\",\"\"\n",
	"\"a\nb\",c\nd,\"e\"\"\"\n",
	"a,b\n1,\"x\"\"\n",
	"a,b\n1,\"x\" \n",
	"\xff,\xfe\n\xc3\x28,1\n",
}

func FuzzFromCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		want, wantErr := refFromCSV(strings.NewReader(in), "r")
		got, gotErr := FromCSV(strings.NewReader(in), "r")
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: reference %v, codec %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text: reference %q, codec %q", wantErr, gotErr)
			}
			var wpe, gpe *csv.ParseError
			if errors.As(wantErr, &wpe) != errors.As(gotErr, &gpe) {
				t.Fatalf("ParseError presence differs: reference %v, codec %v", wantErr, gotErr)
			}
			if wpe != nil && *wpe != *gpe {
				t.Fatalf("ParseError: reference %+v, codec %+v", *wpe, *gpe)
			}
			return
		}
		assertSameRelation(t, want, got)
	})
}

// assertSameRelation checks attrs, dictionary order and codes.
func assertSameRelation(t *testing.T, want, got *Relation) {
	t.Helper()
	if !reflect.DeepEqual(want.attrs, got.attrs) || want.nrows != got.nrows {
		t.Fatalf("shape: reference %v, codec %v", want, got)
	}
	for i := range want.dicts {
		if !reflect.DeepEqual(want.dicts[i].values, got.dicts[i].values) {
			t.Fatalf("column %d dictionary: reference %q, codec %q", i, want.dicts[i].values, got.dicts[i].values)
		}
		if len(want.cols[i]) != 0 || len(got.cols[i]) != 0 {
			if !reflect.DeepEqual(want.cols[i], got.cols[i]) {
				t.Fatalf("column %d codes: reference %v, codec %v", i, want.cols[i], got.cols[i])
			}
		}
	}
}

// relationFromTokens builds a relation from NUL-separated tokens: the
// first ncols name the attributes, the rest fill rows. The token "\x01"
// is Intern(""), a present empty value, and the empty token is Missing.
// Every row is appended twice so that rendered cells are reused.
func relationFromTokens(data string, ncols int) *Relation {
	toks := strings.Split(data, "\x00")
	attrs := make([]string, ncols)
	for i := range attrs {
		if i < len(toks) {
			attrs[i] = toks[i]
		}
	}
	rel := New("r", attrs)
	var rows [][]int32
	for at := ncols; at < len(toks); at += ncols {
		row := make([]int32, ncols)
		for i := range row {
			v := ""
			if at+i < len(toks) {
				v = toks[at+i]
			}
			switch v {
			case "":
				row[i] = Missing
			case "\x01":
				row[i] = rel.Intern(i, "")
			default:
				row[i] = rel.Intern(i, v)
			}
		}
		rows = append(rows, row)
	}
	for _, rs := range [][][]int32{rows, rows} {
		for _, row := range rs {
			if err := rel.AppendCodes(row); err != nil {
				panic(err)
			}
		}
	}
	return rel
}

var toCSVSeeds = []struct {
	data  string
	ncols uint8
}{
	{"a\x00b\x00x,y\x00say \"hi\"", 2},
	{"a\x00b\x00multi\nline\x00cr\rlf\r\n", 2},
	{"a\x00b\x00\\.\x00 lead", 2},
	{"a\x00b\x00\tx\x00\u00a0y", 2},
	{"a\x00b\x00NaN\x00\x00\x00NaN", 2},
	{"a\x00b\x00\x01\x00\x00\x01\x00x", 2},
	{" h\x00h,2\x00\"q\"\x00", 3},
	{"", 1},
	{"a", 1},
	{"\x00\x00\x00", 0},
}

// FuzzToCSV pins CSVWriter to encoding/csv byte for byte: ToCSV against
// csv.Writer over RowStrings, and the StreamCSV form (Missing as "",
// dictionaries growing between rows) against csv.Writer over the same
// strings.
func FuzzToCSV(f *testing.F) {
	for _, s := range toCSVSeeds {
		f.Add(s.data, s.ncols)
	}
	f.Fuzz(func(t *testing.T, data string, ncols uint8) {
		n := 1 + int(ncols)%4
		rel := relationFromTokens(data, n)
		var want, got bytes.Buffer
		if err := refToCSV(rel, &want); err != nil {
			t.Fatal(err)
		}
		if err := rel.ToCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("ToCSV differs from csv.Writer:\nwant %q\ngot  %q", want.Bytes(), got.Bytes())
		}

		// Stream form: intern each row just before writing it.
		want.Reset()
		got.Reset()
		grow := New("s", rel.attrs)
		ref := csv.NewWriter(&want)
		cw := NewCSVWriter(&got, grow.dicts, "")
		if err := ref.Write(rel.attrs); err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteStrings(rel.attrs); err != nil {
			t.Fatal(err)
		}
		codes := make([]int32, n)
		strs := make([]string, n)
		for i := 0; i < rel.NumRows(); i++ {
			for j := 0; j < n; j++ {
				c := rel.Code(i, j)
				strs[j] = ""
				codes[j] = Missing
				if c != Missing {
					strs[j] = rel.Dict(j).Value(c)
					codes[j] = grow.Intern(j, strs[j])
				}
			}
			if err := ref.Write(strs); err != nil {
				t.Fatal(err)
			}
			if err := cw.WriteCodes(codes); err != nil {
				t.Fatal(err)
			}
		}
		ref.Flush()
		if err := ref.Error(); err != nil {
			t.Fatal(err)
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("stream rendering differs from csv.Writer:\nwant %q\ngot  %q", want.Bytes(), got.Bytes())
		}
	})
}

// TestCSVLongLines crosses the reader's and writer's buffer sizes: a
// quoted cell longer than both, spanning lines, round-trips exactly.
func TestCSVLongLines(t *testing.T) {
	long := strings.Repeat("x,\"y\"\n", csvBufSize/3)
	rel := New("r", []string{"a", "b"})
	for i := 0; i < 3; i++ {
		if err := rel.AppendRow([]string{long + fmt.Sprint(i), "z"}); err != nil {
			t.Fatal(err)
		}
	}
	var want, got bytes.Buffer
	if err := refToCSV(rel, &want); err != nil {
		t.Fatal(err)
	}
	if err := rel.ToCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("ToCSV differs from csv.Writer on long cells")
	}
	back, err := FromCSV(bytes.NewReader(got.Bytes()), "r")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, rel, back)
}

// errWriter fails every write.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

func TestToCSVWriteError(t *testing.T) {
	boom := errors.New("boom")
	if err := sample().ToCSV(errWriter{boom}); !errors.Is(err, boom) {
		t.Fatalf("ToCSV error = %v, want %v", err, boom)
	}
}

// codecCSV renders rows rows over a fixed set of values per column. One
// note value in five needs quotes, so both the reader's quote-free and
// quoted paths run.
func codecCSV(rows int) []byte {
	var b bytes.Buffer
	b.WriteString("zip,city,state,note\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%05d,City %d,S%d,", i%97, i%31, i%7)
		if i%5 == 0 {
			b.WriteString("\"n, 0\"\n")
		} else {
			fmt.Fprintf(&b, "n%d\n", i%5)
		}
	}
	return b.Bytes()
}

// appendGrowths counts the allocations append makes growing an int32
// slice from empty to n elements.
func appendGrowths(n int) int {
	var s []int32
	grows := 0
	for i := 0; i < n; i++ {
		if len(s) == cap(s) {
			grows++
		}
		s = append(s, 0)
	}
	return grows
}

// Once every value is in the dictionaries, FromCSV allocates only to
// grow its code columns: ten times the rows of the same values cost no
// more allocations than the extra column growth.
func TestFromCSVAllocsFlat(t *testing.T) {
	small, big := codecCSV(1000), codecCSV(10000)
	allocs := func(in []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := FromCSV(bytes.NewReader(in), "r"); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a10 := allocs(small), allocs(big)
	growth := float64(4 * (appendGrowths(10000) - appendGrowths(1000)))
	if a10-a1 > growth {
		t.Fatalf("FromCSV allocs: %v at 1k rows, %v at 10k rows; column growth explains %v", a1, a10, growth)
	}
}

// ToCSV's allocations do not depend on the row count.
func TestToCSVAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		rel, err := FromCSV(bytes.NewReader(codecCSV(rows)), "r")
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := rel.ToCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a10 := allocs(1000), allocs(10000); a10 != a1 {
		t.Fatalf("ToCSV allocs: %v at 1k rows, %v at 10k rows", a1, a10)
	}
}

const benchCSVRows = 20000

func BenchmarkFromCSV(b *testing.B) {
	in := codecCSV(benchCSVRows)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromCSV(bytes.NewReader(in), "r"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchCSVRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkToCSV(b *testing.B) {
	rel, err := FromCSV(bytes.NewReader(codecCSV(benchCSVRows)), "r")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rel.ToCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchCSVRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
