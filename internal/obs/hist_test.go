package obs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestHistLayout checks the bucket layout invariants exhaustively: every
// bucket's bounds map back to the bucket, buckets tile the value space
// with no gaps or overlaps, and relative width stays within the
// 1/histSubCount design bound.
func TestHistLayout(t *testing.T) {
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := histLower(i), histUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if got := histIndex(lo); got != i {
			t.Fatalf("histIndex(lower(%d)=%d) = %d", i, lo, got)
		}
		if got := histIndex(hi); got != i {
			t.Fatalf("histIndex(upper(%d)=%d) = %d", i, hi, got)
		}
		if i > 0 {
			if prev := histUpper(i - 1); lo != prev+1 {
				t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)", i-1, prev, i, lo)
			}
		}
		if i < 2*histSubCount {
			if lo != hi {
				t.Fatalf("bucket %d should be single-value, got [%d,%d]", i, lo, hi)
			}
		} else if i < histOverflow {
			// Relative width: (hi-lo)/lo ≤ 1/histSubCount.
			if (hi-lo)*histSubCount > lo {
				t.Fatalf("bucket %d [%d,%d] wider than 1/%d relative", i, lo, hi, histSubCount)
			}
		}
	}
	if histUpper(histOverflow-1) != histMaxNS {
		t.Fatalf("last normal bucket upper = %d, want histMaxNS %d", histUpper(histOverflow-1), histMaxNS)
	}
	if histUpper(histOverflow) != math.MaxInt64 {
		t.Fatalf("overflow upper = %d, want MaxInt64", histUpper(histOverflow))
	}
	if histIndex(histMaxNS+1) != histOverflow {
		t.Fatalf("histMaxNS+1 should overflow, got bucket %d", histIndex(histMaxNS+1))
	}
	if histIndex(math.MaxInt64) != histOverflow {
		t.Fatalf("MaxInt64 should overflow, got bucket %d", histIndex(math.MaxInt64))
	}
	if histIndex(-7) != 0 {
		t.Fatalf("negative values should clamp to bucket 0, got %d", histIndex(-7))
	}
}

// histTestValues draws a latency-shaped sample: mixed magnitudes from
// single-digit nanoseconds through the overflow region.
func histTestValues(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = rng.Int63n(64) // exact single-value buckets
		case 1:
			vals[i] = histMaxNS + rng.Int63n(1<<20) // overflow
		default:
			vals[i] = rng.Int63n(int64(1) << uint(4+rng.Intn(40)))
		}
	}
	return vals
}

// TestHistShardedMatchesSingleStream is the core mergeable property:
// observations spread across shards (and across separate histograms whose
// snapshots are merged in any order) produce a snapshot bit-identical to
// a single-stream oracle that saw every value on one shard.
func TestHistShardedMatchesSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := histTestValues(rng, 5000)

	oracle := NewHist(1)
	for _, v := range vals {
		oracle.Observe(v)
	}
	want := oracle.Snapshot("lat")

	sharded := NewHist(8)
	for i, v := range vals {
		sharded.ObserveShard(i, v)
	}
	if got := sharded.Snapshot("lat"); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded snapshot differs from single-stream oracle:\ngot  %+v\nwant %+v", got, want)
	}

	// Split into uneven chunks, snapshot each independently, then merge
	// left-to-right, right-to-left, and pairwise — associativity and
	// commutativity mean every order is bit-identical.
	bounds := []int{0, 17, 1200, 1201, 3500, 5000}
	snaps := make([]HistSnapshot, 0, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		h := NewHist(4)
		for j, v := range vals[bounds[i-1]:bounds[i]] {
			h.ObserveShard(j, v)
		}
		snaps = append(snaps, h.Snapshot("lat"))
	}

	ltr := HistSnapshot{Name: "lat"}
	for _, s := range snaps {
		ltr.Merge(s)
	}
	if !reflect.DeepEqual(ltr, want) {
		t.Fatalf("left-to-right merge differs from oracle:\ngot  %+v\nwant %+v", ltr, want)
	}

	rtl := HistSnapshot{Name: "lat"}
	for i := len(snaps) - 1; i >= 0; i-- {
		rtl.Merge(snaps[i])
	}
	if !reflect.DeepEqual(rtl, want) {
		t.Fatalf("right-to-left merge differs from oracle:\ngot  %+v\nwant %+v", rtl, want)
	}

	// Tree shape: ((s0+s1) + (s2+s3)) + s4.
	left, right := snaps[0], snaps[2]
	left.Merge(snaps[1])
	right.Merge(snaps[3])
	left.Merge(right)
	left.Merge(snaps[4])
	if !reflect.DeepEqual(left, want) {
		t.Fatalf("tree merge differs from oracle:\ngot  %+v\nwant %+v", left, want)
	}
}

// TestHistQuantileBounds checks Quantile against a sorted-slice
// nearest-rank oracle: the true quantile must lie inside [lo, hi], and
// the interval must respect the layout's relative-error bound.
func TestHistQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 1000, 4096} {
		vals := histTestValues(rng, n)
		h := NewHist(4)
		for i, v := range vals {
			h.ObserveShard(i, v)
		}
		snap := h.Snapshot("q")
		sorted := append([]int64(nil), vals...)
		for i := range sorted {
			if sorted[i] < 0 {
				sorted[i] = 0
			}
		}
		sortInt64s(sorted)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int64(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			truth := sorted[rank-1]
			lo, hi := snap.Quantile(q)
			if truth < lo || truth > hi {
				t.Fatalf("n=%d q=%g: true quantile %d outside [%d,%d]", n, q, truth, lo, hi)
			}
			if hi != math.MaxInt64 && lo > 0 && (hi-lo)*histSubCount > lo {
				t.Fatalf("n=%d q=%g: bound [%d,%d] wider than 1/%d relative", n, q, lo, hi, histSubCount)
			}
		}
	}

	var empty HistSnapshot
	if lo, hi := empty.Quantile(0.5); lo != 0 || hi != 0 {
		t.Fatalf("empty quantile = (%d,%d), want (0,0)", lo, hi)
	}
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestHistExactBelowSubCount: values under 2*histSubCount land in
// single-value buckets, so quantile bounds collapse to the exact value.
func TestHistExactBelowSubCount(t *testing.T) {
	h := NewHist(2)
	for v := int64(0); v < 64; v++ {
		h.Observe(v)
	}
	snap := h.Snapshot("exact")
	// Nearest rank: ⌈0.5·64⌉ = 32 → the 32nd smallest value, which is 31.
	lo, hi := snap.Quantile(0.5)
	if lo != hi || lo != 31 {
		t.Fatalf("p50 of 0..63 = [%d,%d], want exactly [31,31]", lo, hi)
	}
}

func TestHistCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHist(4)
	for i, v := range histTestValues(rng, 2000) {
		h.ObserveShard(i, v)
	}
	snap := h.Snapshot("wire")
	snap.Labels = []Label{{Key: "endpoint", Value: "check"}}

	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data2, err := snap.MarshalBinary()
	if err != nil {
		t.Fatalf("second marshal: %v", err)
	}
	if string(data) != string(data2) {
		t.Fatal("marshal is not deterministic")
	}

	got := HistSnapshot{Name: "wire", Labels: snap.Labels}
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, snap)
	}

	// Empty snapshot round-trips too.
	var empty, emptyOut HistSnapshot
	data, err = empty.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	if err := emptyOut.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal empty: %v", err)
	}
	if emptyOut.Count != 0 || len(emptyOut.Buckets) != 0 {
		t.Fatalf("empty round trip = %+v", emptyOut)
	}
}

func TestHistCodecRejectsCorruption(t *testing.T) {
	h := NewHist(1)
	for _, v := range []int64{5, 500, 50000, histMaxNS + 1} {
		h.Observe(v)
	}
	snap := h.Snapshot("c")
	good, err := snap.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("NOPE1"), good[5:]...),
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
	}
	for name, data := range cases {
		var out HistSnapshot
		if err := out.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: unmarshal accepted corrupt payload", name)
		}
	}

	// A payload whose bucket counts do not sum to the header count must be
	// rejected — the total is recomputed, never trusted.
	forged := HistSnapshot{
		Count: 99, SumNS: snap.SumNS, MinNS: snap.MinNS, MaxNS: snap.MaxNS,
		Buckets: append([]HistBucket(nil), snap.Buckets...),
	}
	data, err := forged.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal forged: %v", err)
	}
	var out HistSnapshot
	if err := out.UnmarshalBinary(data); err == nil {
		t.Error("unmarshal accepted bucket-sum/count mismatch")
	}

	// Out-of-order buckets must be rejected at marshal time.
	swapped := snap
	swapped.Buckets = append([]HistBucket(nil), snap.Buckets...)
	swapped.Buckets[0], swapped.Buckets[1] = swapped.Buckets[1], swapped.Buckets[0]
	if _, err := swapped.MarshalBinary(); err == nil {
		t.Error("marshal accepted out-of-order buckets")
	}
}

// histWrapRepro once decoded without error: its second bucket's index
// delta wrapped int to a negative index, and MarshalBinary then rejected
// the snapshot as out of order.
const histWrapRepro = "GRHX1\x040\x010\x040\x010\x01\xe9\xe9\xe9\xe9\xe9\xe9\xe9\xe9\xdf\x01\x010\x01"

// TestHistCodecRejectsHugeIndex: a first index or an index delta beyond
// the layout is rejected, however large the varint.
func TestHistCodecRejectsHugeIndex(t *testing.T) {
	header := func(count, nb uint64) []byte {
		b := []byte(histCodecMagic)
		for _, v := range []uint64{count, 1, 1, 1, nb} {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	firstHuge := binary.AppendUvarint(header(1, 1), 1<<63)
	firstHuge = binary.AppendUvarint(firstHuge, 1)
	deltaHuge := binary.AppendUvarint(header(2, 2), 0)
	deltaHuge = binary.AppendUvarint(deltaHuge, 1)
	deltaHuge = binary.AppendUvarint(deltaHuge, math.MaxUint64)
	deltaHuge = binary.AppendUvarint(deltaHuge, 1)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"repro", []byte(histWrapRepro)},
		{"first index", firstHuge},
		{"delta", deltaHuge},
	} {
		var s HistSnapshot
		if err := s.UnmarshalBinary(tc.data); err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.name, s)
		}
	}
}

func FuzzHistCodec(f *testing.F) {
	h := NewHist(2)
	for _, v := range []int64{1, 33, 4096, histMaxNS + 5} {
		h.Observe(v)
	}
	seed, err := h.Snapshot("f").MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(histCodecMagic))
	f.Add([]byte(histWrapRepro))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s HistSnapshot
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted payloads must be internally consistent and re-encode
		// to an equivalent snapshot.
		var total int64
		for _, b := range s.Buckets {
			total += b.Count
		}
		if total != s.Count {
			t.Fatalf("accepted inconsistent snapshot: bucket sum %d != count %d", total, s.Count)
		}
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted payload failed: %v", err)
		}
		var s2 HistSnapshot
		if err := s2.UnmarshalBinary(re); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("codec not idempotent:\n%+v\n%+v", s, s2)
		}
	})
}

func TestHistNilSafe(t *testing.T) {
	var h *Hist
	h.Observe(5)
	h.ObserveShard(3, 5)
	snap := h.Snapshot("nil")
	if snap.Count != 0 || snap.Name != "nil" {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

// TestHistObserveZeroAlloc pins the hot path: after the shard is
// installed, ObserveShard must not allocate — the serving loop calls it
// once per request under the admission gate.
func TestHistObserveZeroAlloc(t *testing.T) {
	h := NewHist(4)
	h.ObserveShard(2, 100) // install the shard outside the measured region
	if allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveShard(2, 12345)
	}); allocs != 0 {
		t.Fatalf("ObserveShard allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(67890)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
}

// TestHistConcurrent exercises Observe/Snapshot races under -race and
// checks no observation is lost once writers stop.
func TestHistConcurrent(t *testing.T) {
	h := NewHist(8)
	const writers, per = 8, 2000
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.ObserveShard(w, int64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				done <- struct{}{}
				return
			default:
				h.Snapshot("race")
			}
		}
	}()
	for i := 0; i < writers; i++ {
		<-done
	}
	close(stop)
	<-done
	snap := h.Snapshot("race")
	if snap.Count != writers*per {
		t.Fatalf("count = %d, want %d", snap.Count, writers*per)
	}
	if snap.SumNS != writers*int64(per)*(per-1)/2 {
		t.Fatalf("sum = %d, want %d", snap.SumNS, writers*int64(per)*(per-1)/2)
	}
}

func BenchmarkHistObserve(b *testing.B) {
	h := NewHist(defaultHistShards())
	var tickets atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ticket := int(tickets.Add(1))
		v := int64(1)
		for pb.Next() {
			h.ObserveShard(ticket, v)
			v = (v * 2862933555777941757) & histMaxNS
		}
	})
}
