package cache

import (
	"math/rand"
	"testing"
)

// Golden-reference check: the level's LRU replacement must agree with a
// brute-force model that tracks exact recency order per set.
func TestLRUGoldenReference(t *testing.T) {
	const sets, ways = 8, 4
	l := newLevel(sets, ways)
	// reference[set] holds resident ids, most recent last.
	reference := make([][]uint64, sets)
	rng := rand.New(rand.NewSource(3))

	touch := func(ref []uint64, id uint64) []uint64 {
		for i, v := range ref {
			if v == id {
				return append(append(ref[:i:i], ref[i+1:]...), id)
			}
		}
		return ref
	}

	for i := 0; i < 20000; i++ {
		id := uint64(rng.Intn(64)) // ids collide across sets
		set := int(id % sets)
		ref := reference[set]

		if l.touch(id) >= 0 {
			// Hit: reference must agree it is resident.
			found := false
			for _, v := range ref {
				if v == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("step %d: level hit id %d but reference says absent", i, id)
			}
			reference[set] = touch(ref, id)
			continue
		}
		// Miss: reference must agree, then both install.
		for _, v := range ref {
			if v == id {
				t.Fatalf("step %d: level missed id %d but reference says resident", i, id)
			}
		}
		ev, _ := l.install(id, 0)
		if len(ref) < ways {
			if ev != invalidTag {
				t.Fatalf("step %d: eviction from non-full set", i)
			}
			reference[set] = append(ref, id)
			continue
		}
		if ev != ref[0] {
			t.Fatalf("step %d: evicted %d, reference LRU is %d (set %v)", i, ev, ref[0], ref)
		}
		reference[set] = append(ref[1:], id)
	}
}
