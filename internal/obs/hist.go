package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Hist is the exact mergeable latency histogram: a log-linear bucket
// layout over nanoseconds (HDR-style) holding an exact count for every
// observation ever made — no sampling, no recency window, unlike the
// bounded-ring Histogram whose quantiles only describe the most recent
// observations.
//
// The bucket layout is a fixed global constant, not a per-histogram
// parameter: any two Hist values (or their snapshots, possibly shipped
// through the binary codec) merge by summing bucket counts, the same
// mergeable-by-construction discipline as internal/stats/incr tables.
// Quantile queries return exact bounds: the true q-quantile of everything
// ever observed provably lies in the returned [lo, hi] interval, and the
// interval's relative width is at most 1/histSubCount (~3.1%) — values
// below 2*histSubCount ns land in single-value buckets and are exact.
//
// Observe is lock-free: a bucket increment is one atomic add on a
// per-shard counter array, so a scrape (which merges shards into a
// snapshot) never stalls the hot path. Shards follow the same
// single-writer philosophy as trace lanes: callers that own an exclusive
// ticket (the serve admission slot) spread contention with ObserveShard;
// everything else uses Observe (shard 0). Shard placement never affects
// the merged result — only cache-line contention.
//
// The nil *Hist is a no-op, like every other obs handle.
type Hist struct {
	shards []atomic.Pointer[histShard] // power-of-two length, lazily filled
}

// Bucket layout: buckets 0..2*histSubCount-1 hold exactly one value each
// (0..63 ns); above that, each power-of-two octave splits into
// histSubCount linear sub-buckets, so bucket width grows with magnitude
// while relative error stays ≤ 1/histSubCount. Values above histMaxNS
// (~2.4 h) fall into a single overflow bucket whose upper bound is +Inf;
// the exact observed maximum is still tracked separately.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 linear sub-buckets per octave
	histMaxExp   = 42               // top tracked octave: up to 2^43-1 ns

	histNumBuckets = histSubCount + (histMaxExp-histSubBits+1)*histSubCount + 1
	histOverflow   = histNumBuckets - 1

	// histMaxNS is the largest value the normal buckets track.
	histMaxNS = int64(1)<<(histMaxExp+1) - 1
)

// histIndex maps a value to its bucket. Negative values clamp to 0.
func histIndex(v int64) int {
	if v < histSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	if exp > histMaxExp {
		return histOverflow
	}
	// Top histSubBits bits after the leading one select the sub-bucket;
	// for exp == histSubBits this degenerates to the identity, stitching
	// seamlessly onto the single-value buckets below histSubCount.
	return (exp-histSubBits)*histSubCount + int(v>>uint(exp-histSubBits))
}

// histLower returns bucket i's smallest value.
func histLower(i int) int64 {
	if i < 2*histSubCount {
		return int64(i)
	}
	o := i/histSubCount - 1
	s := i % histSubCount
	return int64(histSubCount+s) << uint(o)
}

// histUpper returns bucket i's largest value (inclusive); +Inf (MaxInt64)
// for the overflow bucket.
func histUpper(i int) int64 {
	if i >= histOverflow {
		return math.MaxInt64
	}
	return histLower(i+1) - 1
}

// histShard is one writer shard: an atomic counter per bucket plus the
// exact aggregate moments. ~10 KiB, allocated on first use so idle shards
// (and idle vector children) cost one pointer.
type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histNumBuckets]atomic.Int64
}

func newHistShard() *histShard {
	s := &histShard{}
	s.min.Store(math.MaxInt64)
	s.max.Store(math.MinInt64)
	return s
}

// defaultHistShards sizes a histogram's shard array to the next power of
// two at or above GOMAXPROCS, capped at 64.
func defaultHistShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewHist builds a histogram with the given shard count (rounded up to a
// power of two, minimum 1). Registry.Exact is the usual constructor.
func NewHist(shards int) *Hist {
	p := 1
	for p < shards {
		p <<= 1
	}
	return &Hist{shards: make([]atomic.Pointer[histShard], p)}
}

// shard returns shard i's storage, installing it on first use. The CAS
// race on first touch is benign: the loser's allocation is dropped.
func (h *Hist) shard(i int) *histShard {
	p := &h.shards[i&(len(h.shards)-1)]
	s := p.Load()
	if s == nil {
		s = newHistShard()
		if !p.CompareAndSwap(nil, s) {
			s = p.Load()
		}
	}
	return s
}

// Observe records one value on shard 0. Safe from any goroutine; callers
// holding an exclusive ticket should prefer ObserveShard to spread
// cache-line contention. No-op on a nil histogram.
func (h *Hist) Observe(v int64) { h.ObserveShard(0, v) }

// ObserveShard records one value on the shard selected by ticket (reduced
// modulo the shard count). Lock-free: one atomic add per bucket/moment.
func (h *Hist) ObserveShard(ticket int, v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := h.shard(ticket)
	s.buckets[histIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		m := s.min.Load()
		if v >= m || s.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := s.max.Load()
		if v <= m || s.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Label is one key/value dimension of a labeled metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// HistBucket is one non-empty bucket of a snapshot: the bucket's
// inclusive upper bound in nanoseconds (MaxInt64 for the overflow bucket)
// and its exact (non-cumulative) count.
type HistBucket struct {
	UpperNS int64 `json:"le_ns"`
	Count   int64 `json:"count"`
}

// HistSnapshot is the merged, point-in-time view of a Hist: exact
// aggregate moments plus the sparse non-empty buckets in ascending order.
// Snapshots are the mergeable value — Merge sums two of them, and the
// binary codec ships them between processes — mirroring how
// stats/incr.Table carries sufficient statistics.
type HistSnapshot struct {
	Name    string       `json:"name"`
	Labels  []Label      `json:"labels,omitempty"`
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	MinNS   int64        `json:"min_ns"`
	MaxNS   int64        `json:"max_ns"`
	P50NS   int64        `json:"p50_ns"`
	P90NS   int64        `json:"p90_ns"`
	P99NS   int64        `json:"p99_ns"`
	P999NS  int64        `json:"p999_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot merges every shard into one exact view. Concurrent Observes
// land either side of the atomic reads — each observation is counted
// exactly once in some snapshot taken after it.
func (h *Hist) Snapshot(name string) HistSnapshot {
	s := HistSnapshot{Name: name}
	if h == nil {
		return s
	}
	var dense [histNumBuckets]int64
	min, max := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range h.shards {
		sh := h.shards[i].Load()
		if sh == nil {
			continue
		}
		s.Count += sh.count.Load()
		s.SumNS += sh.sum.Load()
		if m := sh.min.Load(); m < min {
			min = m
		}
		if m := sh.max.Load(); m > max {
			max = m
		}
		for b := range sh.buckets {
			dense[b] += sh.buckets[b].Load()
		}
	}
	if s.Count > 0 {
		s.MinNS, s.MaxNS = min, max
	}
	for b, c := range dense {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{UpperNS: histUpper(b), Count: c})
		}
	}
	s.finalize()
	return s
}

// finalize recomputes the quantile-bound fields from the buckets.
func (s *HistSnapshot) finalize() {
	_, s.P50NS = s.Quantile(0.50)
	_, s.P90NS = s.Quantile(0.90)
	_, s.P99NS = s.Quantile(0.99)
	_, s.P999NS = s.Quantile(0.999)
}

// Quantile returns exact bounds on the q-quantile (nearest-rank over
// every observation ever made): the true quantile lies in [lo, hi]. The
// bounds come from the bucket containing the rank-⌈q·count⌉ observation,
// tightened by the exact min/max. An empty snapshot returns (0, 0).
func (s HistSnapshot) Quantile(q float64) (lo, hi int64) {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0, 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			lo = histLower(histIndex(b.UpperNS))
			if lo < s.MinNS {
				lo = s.MinNS
			}
			hi = b.UpperNS
			if hi > s.MaxNS {
				hi = s.MaxNS
			}
			return lo, hi
		}
	}
	return s.MinNS, s.MaxNS // unreachable when Σ bucket counts == Count
}

// Merge folds o into s: bucket counts and moments sum, exactly as if
// every observation behind o had been recorded into s's histogram.
// Merging is associative and commutative, so any shard/merge tree yields
// bit-identical snapshots.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		name, labels := s.Name, s.Labels
		*s = o
		s.Name, s.Labels = name, labels
		s.Buckets = append([]HistBucket(nil), o.Buckets...)
		return
	}
	merged := make([]HistBucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].UpperNS < o.Buckets[j].UpperNS):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].UpperNS < s.Buckets[i].UpperNS:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, HistBucket{UpperNS: s.Buckets[i].UpperNS, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MinNS < s.MinNS {
		s.MinNS = o.MinNS
	}
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	s.finalize()
}

// Binary codec for histogram snapshots — the wire format for shipping
// latency sufficient statistics between shards or nodes, mirroring the
// stats/incr table codec. Deterministic: equal snapshots marshal to equal
// bytes (buckets are already in ascending order by construction).
//
//	"GRHX1" | count sum min max uvarint | numBuckets uvarint |
//	per bucket: index delta uvarint (first absolute, then gap), count uvarint
//
// Name and labels are addressing, not statistics, and stay out of the
// payload — like variable names in the table codec.
const histCodecMagic = "GRHX1"

// MarshalBinary serializes the snapshot's statistics.
func (s HistSnapshot) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, len(histCodecMagic)+5*10+len(s.Buckets)*4)
	buf = append(buf, histCodecMagic...)
	buf = binary.AppendUvarint(buf, uint64(s.Count))
	buf = binary.AppendUvarint(buf, uint64(s.SumNS))
	buf = binary.AppendUvarint(buf, uint64(s.MinNS))
	buf = binary.AppendUvarint(buf, uint64(s.MaxNS))
	buf = binary.AppendUvarint(buf, uint64(len(s.Buckets)))
	prev := -1
	for _, b := range s.Buckets {
		idx := histIndex(b.UpperNS)
		if idx <= prev {
			return nil, fmt.Errorf("obs: histogram buckets out of order at le_ns=%d", b.UpperNS)
		}
		if b.Count <= 0 {
			return nil, fmt.Errorf("obs: non-positive bucket count %d", b.Count)
		}
		if prev < 0 {
			buf = binary.AppendUvarint(buf, uint64(idx))
		} else {
			buf = binary.AppendUvarint(buf, uint64(idx-prev))
		}
		buf = binary.AppendUvarint(buf, uint64(b.Count))
		prev = idx
	}
	return buf, nil
}

// UnmarshalBinary replaces the snapshot's statistics (Name and Labels are
// preserved). The total count is validated against the bucket sum, so a
// corrupt payload cannot smuggle in an inconsistent histogram.
func (s *HistSnapshot) UnmarshalBinary(data []byte) error {
	if len(data) < len(histCodecMagic) || string(data[:len(histCodecMagic)]) != histCodecMagic {
		return errors.New("obs: bad histogram magic")
	}
	data = data[len(histCodecMagic):]
	var hdr [5]int64
	for i := range hdr {
		v, n := binary.Uvarint(data)
		if n <= 0 || v > math.MaxInt64 {
			return errors.New("obs: bad histogram header")
		}
		hdr[i] = int64(v)
		data = data[n:]
	}
	count, sum, min, max, nb := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4]
	if nb > histNumBuckets {
		return fmt.Errorf("obs: %d buckets exceeds layout size %d", nb, histNumBuckets)
	}
	if count > 0 && min > max {
		return errors.New("obs: histogram min exceeds max")
	}
	buckets := make([]HistBucket, 0, nb)
	var total int64
	prev := -1
	for i := int64(0); i < nb; i++ {
		d, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("obs: truncated bucket index")
		}
		data = data[n:]
		// Bound the index, or the delta, before any arithmetic: a huge
		// varint would wrap int to a negative index.
		if d >= histNumBuckets {
			return fmt.Errorf("obs: bucket index %d out of range", d)
		}
		idx := int(d)
		if prev >= 0 {
			if d == 0 {
				return errors.New("obs: non-increasing bucket index")
			}
			idx = prev + int(d)
		}
		if idx >= histNumBuckets {
			return fmt.Errorf("obs: bucket index %d out of range", idx)
		}
		c, n := binary.Uvarint(data)
		if n <= 0 || c == 0 || c > math.MaxInt64 {
			return errors.New("obs: bad bucket count")
		}
		data = data[n:]
		buckets = append(buckets, HistBucket{UpperNS: histUpper(idx), Count: int64(c)})
		total += int64(c)
		if total < 0 {
			return errors.New("obs: bucket count overflow")
		}
		prev = idx
	}
	if len(data) != 0 {
		return errors.New("obs: trailing bytes")
	}
	if total != count {
		return fmt.Errorf("obs: bucket sum %d != count %d", total, count)
	}
	s.Count, s.SumNS = count, sum
	if count > 0 {
		s.MinNS, s.MaxNS = min, max
	} else {
		s.MinNS, s.MaxNS = 0, 0
	}
	s.Buckets = buckets
	s.finalize()
	return nil
}
