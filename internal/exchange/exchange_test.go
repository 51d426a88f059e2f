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
// reporting into at, once not — and holds both to the reference: equal
// groups, value order, offsets and landing positions. The report must land in
// at itself when at has the room.
func checkBuild[K Key](t *testing.T, b *Builder[K, int], l *Log[K, int], at []Entry[K], keys []K, group bool, owners int, owner func(K, int) int) {
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
		var got []Entry[K]
		if report {
			got = b.BuildReport(l, at, group, owners, owner)
			if len(keys) > 0 && cap(at) >= len(keys) && &got[0] != &at[0] {
				t.Fatalf("a report of %d entries did not land in a buffer of capacity %d", len(keys), cap(at))
			}
		} else {
			b.Build(l, group, owners, owner)
		}
		if !slices.Equal(l.Groups, want.Groups) || !slices.Equal(l.Vals, want.Vals) || !slices.Equal(l.Off, want.Off) {
			t.Fatalf("group %v, %d owners, keys %v:\ngroups %v vals %v off %v\nwant   %v vals %v off %v",
				group, owners, keys, l.Groups, l.Vals, l.Off, want.Groups, want.Vals, want.Off)
		}
		if report && !slices.Equal(got, wantAt) {
			t.Fatalf("group %v, %d owners, keys %v: landed %v, want %v", group, owners, keys, got, wantAt)
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

// staleReport is a caller's report buffer from an earlier build: n entries
// of capacity n+extra, every one naming a place no build would report.
func staleReport[K Key](n, extra int) []Entry[K] {
	at := make([]Entry[K], n, n+extra)
	for i := range at {
		at[i] = Entry[K]{Key: K(i), Pos: -1 - int32(i)}
	}
	return at
}

// FuzzExchange holds the kernel to the reference: keys from byte pairs at
// 32 and 64 bits (see fuzzKeys), grouping on and off, 1 to 9 owners (a
// propagation log over eight partitions has nine) or no owner function, and
// one builder and log reused across both widths. The report goes into a
// caller's stale buffer, the top bits of pick choosing whether it is short of
// the inputs or has room for them.
func FuzzExchange(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, uint8(1))
	f.Add([]byte{7, 1, 3, 255, 7, 1, 0, 128, 3, 255, 9, 0}, uint8(0x2b))
	f.Add([]byte{255, 255, 0, 0, 255, 127, 1, 128, 255, 255}, uint8(0x47))
	f.Add([]byte{7, 1, 3, 255, 7, 1, 0, 128, 3, 255, 9, 0}, uint8(0xab))
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
		room := len(u) / 2
		if pick&0x80 != 0 {
			room = len(u) + 1
		}
		var bu Builder[uint32, int]
		var lu Log[uint32, int]
		checkBuild(t, &bu, &lu, staleReport[uint32](room/2, room-room/2), u, group, owners, ownU)
		checkBuild(t, &bu, &lu, staleReport[uint32](room, 0), u[:len(u)/2], !group, owners, ownU)
		var bs Builder[int64, int]
		var ls Log[int64, int]
		checkBuild(t, &bs, &ls, staleReport[int64](room, 0), s, group, owners, ownS)
		checkBuild(t, &bs, &ls, nil, s[len(s)/2:], !group, owners, ownS)
	})
}

// TestSharedBuilder: one builder serves several sources in turn, as a
// worker's builder serves whichever partitions it runs. Four inputs — wide
// and narrow keys, grouped and not — are built round-robin, three rounds,
// through one builder, each into its own log and its own report buffer,
// stale and short of room in the first round. Every build must equal a build
// of the same input through a fresh builder, log and report bit for bit.
func TestSharedBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type source struct {
		keys   []int64
		group  bool
		owners int
		log    Log[int64, int]
		at     []Entry[int64]
	}
	var srcs []*source
	for i, n := range []int{3000, 40, 700, 1} {
		keys := make([]int64, n)
		for j := range keys {
			keys[j] = rng.Int63n(int64(n)) << (20 * (i % 2))
		}
		srcs = append(srcs, &source{keys: keys, group: i < 2, owners: 1 + 4*i, at: staleReport[int64](n/3, 1)})
	}
	owner := func(owners int) func(int64, int) int {
		return func(k int64, _ int) int { return int(uint64(k) % uint64(owners)) }
	}
	var shared Builder[int64, int]
	for round := 0; round < 3; round++ {
		for i, src := range srcs {
			shared.Reset(len(src.keys) / 2)
			for j, k := range src.keys {
				shared.Add(k, j)
			}
			src.at = shared.BuildReport(&src.log, src.at, src.group, src.owners, owner(src.owners))
			var fresh Builder[int64, int]
			var want Log[int64, int]
			for j, k := range src.keys {
				fresh.Add(k, j)
			}
			wantAt := fresh.BuildReport(&want, nil, src.group, src.owners, owner(src.owners))
			if !slices.Equal(src.at, wantAt) || !slices.Equal(src.log.Groups, want.Groups) ||
				!slices.Equal(src.log.Vals, want.Vals) || !slices.Equal(src.log.Off, want.Off) {
				t.Fatalf("round %d, source %d: a shared builder's build differs from a fresh one's", round, i)
			}
		}
	}
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
			var at []Entry[uint32]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bl.Reset(n)
				for j, k := range keys {
					bl.Add(k, float64(j))
				}
				at = bl.BuildReport(&l, at, group, owners, owner)
			}
		})
	}
}
