package exchange

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refGroup is one group of the reference layout: its key and its inputs,
// whose values are their indexes.
type refGroup[K Key] struct {
	key  K
	vals []int
}

// reference lays keys out the way the kernel is specified to, with a
// comparison sort and a filter per owner: the stable sort groups equal keys
// (compared widened to 64 bits), each group keeps its inputs in order, and
// owner o's run is every group it owns, in that order. It returns the log and
// where each input landed.
func reference[K Key](keys []K, group bool, owners int, owner func(K, int) int) (Log[K, int], []Entry[K]) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	if group {
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(uint64(keys[a]), uint64(keys[b])) })
	}
	var groups []refGroup[K]
	for _, i := range idx {
		if g := len(groups) - 1; group && g >= 0 && groups[g].key == keys[i] {
			groups[g].vals = append(groups[g].vals, i)
			continue
		}
		groups = append(groups, refGroup[K]{key: keys[i], vals: []int{i}})
	}
	l := Log[K, int]{Off: make([]int32, owners+1)}
	at := make([]Entry[K], len(keys))
	for o := range owners {
		for _, g := range groups {
			if owner != nil && owner(g.key, g.vals[0]) != o || owner == nil && o != 0 {
				continue
			}
			for j, i := range g.vals {
				at[i] = Entry[K]{Key: g.key, Pos: int32(len(l.Vals) + j)}
			}
			l.Vals = append(l.Vals, g.vals...)
			l.Groups = append(l.Groups, Group[K]{Key: g.key, End: int32(len(l.Vals))})
		}
		l.Off[o+1] = int32(len(l.Groups))
	}
	return l, at
}

// checkBuild builds keys (input i's value is i) with b into l, twice — once
// reporting, once not — and holds both to the reference: equal groups, value
// order, offsets and landing positions.
func checkBuild[K Key](t *testing.T, b *Builder[K, int], l *Log[K, int], keys []K, group bool, owners int, owner func(K, int) int) {
	t.Helper()
	want, wantAt := reference(keys, group, owners, owner)
	for _, report := range []bool{true, false} {
		b.Reset(0)
		for i, k := range keys {
			b.Add(k, i)
		}
		if b.Len() != len(keys) {
			t.Fatalf("Len %d after %d inputs", b.Len(), len(keys))
		}
		var at []Entry[K]
		if report {
			at = slices.Clone(b.BuildReport(l, group, owners, owner))
		} else {
			b.Build(l, group, owners, owner)
		}
		if !slices.Equal(l.Groups, want.Groups) || !slices.Equal(l.Vals, want.Vals) || !slices.Equal(l.Off, want.Off) {
			t.Fatalf("group %v, %d owners, keys %v:\ngroups %v vals %v off %v\nwant   %v vals %v off %v",
				group, owners, keys, l.Groups, l.Vals, l.Off, want.Groups, want.Vals, want.Off)
		}
		if report && !slices.Equal(at, wantAt) {
			t.Fatalf("group %v, %d owners, keys %v: landed %v, want %v", group, owners, keys, at, wantAt)
		}
		if b.Len() != 0 {
			t.Fatalf("%d inputs left after a build", b.Len())
		}
	}
	// The destination side: gathering every owner's run, owners in order,
	// collects each group's first value under its key.
	var want2 []Entry[K]
	for _, g := range want.Groups {
		want2 = append(want2, Entry[K]{Key: g.Key})
	}
	start := int32(0)
	for j, g := range want.Groups {
		want2[j].Pos, start = int32(want.Vals[start]), g.End
	}
	var gathered Log[K, int]
	for o := range owners {
		b.Gather(l, o)
	}
	b.Build(&gathered, false, 1, nil)
	for j, g := range gathered.Groups {
		if j >= len(want2) || g.Key != want2[j].Key || gathered.Vals[j] != int(want2[j].Pos) {
			t.Fatalf("gathered %v %v, want %v", gathered.Groups, gathered.Vals, want2)
		}
	}
	if len(gathered.Groups) != len(want2) {
		t.Fatalf("gathered %d groups, want %d", len(gathered.Groups), len(want2))
	}
}

// fuzzKeys turns byte pairs into keys at two widths: 32-bit keys, the
// second byte moved to the top so that keys reach 2^32-1, and 64-bit keys —
// the same bits sign-extended, so that about half go negative, or, where the
// first byte is odd, shifted up 24 bits, so that bits above 32 vary on their
// own. A zero pair is key 0 at both widths.
func fuzzKeys(data []byte) (u []uint32, s []int64) {
	for i := 0; i+1 < len(data); i += 2 {
		k := uint32(data[i]) | uint32(data[i+1])<<24
		w := int64(int32(k))
		if data[i]&1 == 1 {
			w = int64(k) << 24
		}
		u, s = append(u, k), append(s, w)
	}
	return u, s
}

// FuzzExchange holds the kernel to the reference: keys from byte pairs at
// 32 and 64 bits (see fuzzKeys), grouping on and off, 1 to 9 owners (a
// propagation log over eight partitions has nine) or no owner function, and
// one builder and log reused across both widths.
func FuzzExchange(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, uint8(1))
	f.Add([]byte{7, 1, 3, 255, 7, 1, 0, 128, 3, 255, 9, 0}, uint8(0x2b))
	f.Add([]byte{255, 255, 0, 0, 255, 127, 1, 128, 255, 255}, uint8(0x47))
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		group, owners := pick&1 == 1, 1+int(pick>>1)%9
		u, s := fuzzKeys(data)
		var ownU func(uint32, int) int
		var ownS func(int64, int) int
		if pick&2 == 0 || owners > 1 {
			ownU = func(k uint32, _ int) int { return int(uint64(k) * 0x9E3779B97F4A7C15 >> 40 % uint64(owners)) }
			ownS = func(k int64, _ int) int { return int(uint64(k) * 0x9E3779B97F4A7C15 >> 40 % uint64(owners)) }
		}
		var bu Builder[uint32, int]
		var lu Log[uint32, int]
		checkBuild(t, &bu, &lu, u, group, owners, ownU)
		checkBuild(t, &bu, &lu, u[:len(u)/2], !group, owners, ownU)
		var bs Builder[int64, int]
		var ls Log[int64, int]
		checkBuild(t, &bs, &ls, s, group, owners, ownS)
		checkBuild(t, &bs, &ls, s[len(s)/2:], !group, owners, ownS)
	})
}

// BenchmarkBuild lays out one source's log of 1M emissions — keys drawn from
// 2^18 destinations, 65 owners as a propagation log over 64 partitions has —
// with the landing report, grouped and not.
func BenchmarkBuild(b *testing.B) {
	const n, dsts, owners = 1 << 20, 1 << 18, 65
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(rng.Intn(dsts))
	}
	owner := func(k uint32, _ float64) int { return int(k % owners) }
	for _, group := range []bool{true, false} {
		name := "ungrouped"
		if group {
			name = "grouped"
		}
		b.Run(name, func(b *testing.B) {
			var bl Builder[uint32, float64]
			var l Log[uint32, float64]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bl.Reset(n)
				for j, k := range keys {
					bl.Add(k, float64(j))
				}
				bl.BuildReport(&l, group, owners, owner)
			}
		})
	}
}
