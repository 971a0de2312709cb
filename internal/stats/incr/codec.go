package incr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Binary codec for tables, for shipping sufficient statistics between
// shards or checkpointing a ring. The format is deterministic — cells
// serialize in sorted key order — so equal tables marshal to equal
// bytes.
//
//	"GRIT1" | numVars uvarint | cards... uvarint |
//	numCells uvarint | per cell: 4*numVars key bytes, count uvarint
//
// The total observation count is recomputed on decode rather than
// stored, keeping the invariant n == Σ counts unforgeable.
const codecMagic = "GRIT1"

// MarshalBinary serializes the table.
func (t *Table) MarshalBinary() ([]byte, error) {
	keys := make([]string, 0, len(t.cells))
	for k := range t.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 0, len(codecMagic)+10*(len(t.cards)+2)+len(keys)*(4*len(t.cards)+5))
	buf = append(buf, codecMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(t.cards)))
	for _, c := range t.cards {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(t.cells[k]))
	}
	return buf, nil
}

// UnmarshalBinary replaces t's contents with the serialized table.
func (t *Table) UnmarshalBinary(data []byte) error {
	if len(data) < len(codecMagic) || string(data[:len(codecMagic)]) != codecMagic {
		return errors.New("incr: bad table magic")
	}
	data = data[len(codecMagic):]
	nv, n := binary.Uvarint(data)
	if n <= 0 || nv > 1<<20 {
		return errors.New("incr: bad variable count")
	}
	data = data[n:]
	cards := make([]int, nv)
	for i := range cards {
		c, n := binary.Uvarint(data)
		if n <= 0 || c > 1<<31 {
			return fmt.Errorf("incr: bad cardinality for variable %d", i)
		}
		cards[i] = int(c)
		data = data[n:]
	}
	nc, n := binary.Uvarint(data)
	if n <= 0 {
		return errors.New("incr: bad cell count")
	}
	data = data[n:]
	keyLen := int(nv) * 4
	// Each cell takes at least keyLen+1 bytes. Divide rather than
	// multiply: nc*(keyLen+1) can wrap and pass, and nc then sizes the map.
	if nc > uint64(len(data))/uint64(keyLen+1) {
		return errors.New("incr: truncated cells")
	}
	cells := make(map[string]int64, nc)
	var total int64
	for i := uint64(0); i < nc; i++ {
		if len(data) < keyLen {
			return errors.New("incr: truncated cell key")
		}
		key := string(data[:keyLen])
		data = data[keyLen:]
		cnt, n := binary.Uvarint(data)
		if n <= 0 || cnt == 0 || cnt > 1<<62 {
			return errors.New("incr: bad cell count value")
		}
		data = data[n:]
		if _, dup := cells[key]; dup {
			return errors.New("incr: duplicate cell key")
		}
		// Codes beyond the declared cardinality would break the CI tests'
		// table bounds; only the missing sentinel may sit outside [0, card).
		for v := 0; v < int(nv); v++ {
			if c := codeAt(key, v); c < 0 && c != -1 || c >= 0 && int(c) >= cards[v] {
				return fmt.Errorf("incr: cell code %d out of range for variable %d", c, v)
			}
		}
		cells[key] = int64(cnt)
		total += int64(cnt)
		if total < 0 {
			return errors.New("incr: total count overflow")
		}
	}
	if len(data) != 0 {
		return errors.New("incr: trailing bytes")
	}
	t.cards = cards
	t.cells = cells
	t.n = total
	return nil
}
