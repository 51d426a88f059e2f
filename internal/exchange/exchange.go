// Package exchange is the one all-to-all exchange under both of Surfer's
// primitives (DESIGN.md, determinism point 2): a source's log is grouped by
// key when it combines, then bucketed by owner, stably, and owner q reads
// Run(q) of every source's log, sources in index order. Propagation and
// MapReduce differ only in who owns a value (Figure 7's comparison).
package exchange

import "math/bits"

// Key is what a log groups and buckets by. Keys are compared and sorted
// widened to 64 bits, sign included.
type Key interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// Entry is an input's key and its index among the inputs — or, in a
// report, where its value landed.
type Entry[K Key] struct {
	Key K
	Pos int32
}

// Group is one key's window of a log's values, Vals[start:End], start being
// the previous group's End.
type Group[K Key] struct {
	Key K
	End int32
}

// Log is one source's side of an exchange: its groups owner by owner — owner
// o's run is Groups[Off[o]:Off[o+1]] — and their values, group by group.
type Log[K Key, V any] struct {
	Groups []Group[K]
	Vals   []V
	Off    []int32
}

// Run returns owner o's groups, in log order, and where the first one's
// values start in Vals.
func (l *Log[K, V]) Run(o int) ([]Group[K], int32) {
	lo, start := l.Off[o], int32(0)
	if lo > 0 {
		start = l.Groups[lo-1].End
	}
	return l.Groups[lo:l.Off[o+1]], start
}

// Builder collects a source's inputs and lays them out in a Log, keeping its
// buffers' capacity from one build to the next (the inputs and their values,
// the radix sort's second buffer, each group's owner, the placement's cursors
// per owner) but nothing a later build reads: it serves any sources in turn.
type Builder[K Key, V any] struct {
	in, spare  []Entry[K]
	vals       []V
	owner, cur []int32
}

// Sized returns s at length n, reallocating only when its capacity is short.
// The contents are unspecified: callers overwrite every element they read.
func Sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset drops the inputs collected so far and makes room for n of them.
func (b *Builder[K, V]) Reset(n int) {
	if cap(b.in) < n || cap(b.vals) < n {
		b.in, b.vals = make([]Entry[K], 0, n), make([]V, 0, n)
	}
	b.in, b.vals = b.in[:0], b.vals[:0]
}

// Len returns how many inputs have been collected since the last Build.
func (b *Builder[K, V]) Len() int { return len(b.in) }

// Add collects one input.
func (b *Builder[K, V]) Add(k K, v V) {
	b.in = append(b.in, Entry[K]{Key: k, Pos: int32(len(b.vals))})
	b.vals = append(b.vals, v)
}

// Gather collects owner o's run of l: each group's first value — the one
// value a group sends — under the group's key.
func (b *Builder[K, V]) Gather(l *Log[K, V], o int) {
	groups, start := l.Run(o)
	in, vals := b.in, b.vals
	for _, g := range groups {
		in = append(in, Entry[K]{Key: g.Key, Pos: int32(len(vals))})
		vals = append(vals, l.Vals[start])
		start = g.End
	}
	b.in, b.vals = in, vals
}

// Build lays the inputs out in l and consumes them. With group, the inputs
// that share a key form one group, keys ascending and each group's values in
// input order (one stable LSD radix sort over the widest key present);
// without, every input is its own group, in input order. The groups are then
// counting-sorted by owner, stably: owner(k, v) in [0, owners) owns the group
// of key k whose first value is v, and a nil owner gives owner 0 everything.
// owner is called once per group, in that order, so it may also account the
// value the group will send.
func (b *Builder[K, V]) Build(l *Log[K, V], group bool, owners int, owner func(K, V) int) {
	b.build(l, nil, group, owners, owner)
}

// BuildReport is Build that also reports where the inputs landed, into at
// resized: entry i is input i's key and its value's place in l.Vals.
func (b *Builder[K, V]) BuildReport(l *Log[K, V], at []Entry[K], group bool, owners int, owner func(K, V) int) []Entry[K] {
	return b.build(l, Sized(at, len(b.in)), group, owners, owner)
}

func (b *Builder[K, V]) build(l *Log[K, V], at []Entry[K], group bool, owners int, owner func(K, V) int) []Entry[K] {
	n := len(b.in)
	sorted, spare := b.in, b.spare
	if group {
		sorted, spare = radixSort(sorted, Sized(spare, n))
	}
	l.Off, l.Vals = Sized(l.Off, owners+1), Sized(l.Vals, n)
	cur := Sized(b.cur, 2*(owners+1))
	clear(cur)
	if group {
		b.placeGroups(l, cur[:owners+1], cur[owners+1:], sorted, at, owner)
	} else {
		b.placeEach(l, cur[:owners+1], sorted, at, owner)
	}
	// Placing through cur[o] left it at the start of owner o+1's run: the
	// offsets are the cursors shifted up by one slot. The cursors are the
	// builder's, so that builds side by side never share a cache line.
	l.Off[0] = 0
	copy(l.Off[1:], cur[:owners])
	l.Groups = l.Groups[:l.Off[owners]]
	b.in, b.spare, b.vals, b.cur = sorted[:0], spare, b.vals[:0], cur
	return at
}

// placeEach places every input as a group of its own. One walk counts each
// owner's inputs in the slot after the owner's, keeping the owner in the
// input's Pos (an ungrouped input's index is its place in in), the sums turn
// the counts into each owner's first place, and a second walk places the
// inputs through them.
func (b *Builder[K, V]) placeEach(l *Log[K, V], off []int32, in, at []Entry[K], owner func(K, V) int) {
	vals, from, groups := l.Vals, b.vals, Sized(l.Groups, len(in))
	for i := range in {
		o := 0
		if owner != nil {
			o = owner(in[i].Key, from[i])
		}
		in[i].Pos = int32(o)
		off[o+1]++
	}
	for o := 1; o < len(off); o++ {
		off[o] += off[o-1]
	}
	for i, e := range in {
		pos := off[e.Pos]
		off[e.Pos]++
		groups[pos] = Group[K]{Key: e.Key, End: pos + 1}
		vals[pos] = from[i]
		if at != nil {
			at[i] = Entry[K]{Key: e.Key, Pos: pos}
		}
	}
	l.Groups = groups
}

// placeGroups places each run of one key in sorted as one group. One walk
// finds each group's owner and counts the group, and its values, in the slot
// after the owner's (a nil owner needs no counts), the sums turn the counts
// into each owner's first group and value, and a second walk places them.
func (b *Builder[K, V]) placeGroups(l *Log[K, V], off, cur []int32, sorted, at []Entry[K], owner func(K, V) int) {
	own, from := Sized(b.owner, len(sorted))[:0], b.vals
	for i := 0; owner != nil && i < len(sorted); {
		j := groupEnd(sorted, i)
		o := owner(sorted[i].Key, from[sorted[i].Pos])
		own = append(own, int32(o))
		off[o+1]++
		cur[o+1] += int32(j - i)
		i = j
	}
	for o := 1; o < len(off); o++ {
		off[o] += off[o-1]
		cur[o] += cur[o-1]
	}
	groups, vals := Sized(l.Groups, len(own)), l.Vals
	if owner == nil {
		groups = Sized(l.Groups, len(sorted)) // at most one group per input
	}
	for i, g := 0, 0; i < len(sorted); g++ {
		o := int32(0)
		if owner != nil {
			o = own[g]
		}
		k, pos := sorted[i].Key, cur[o]
		for j := groupEnd(sorted, i); i < j; i, pos = i+1, pos+1 {
			in := sorted[i].Pos
			if at != nil {
				at[in] = Entry[K]{Key: k, Pos: pos}
			}
			vals[pos] = from[in]
		}
		groups[off[o]] = Group[K]{Key: k, End: pos}
		off[o]++
		cur[o] = pos
	}
	l.Groups, b.owner = groups, own
}

// groupEnd returns the end of the run of entries that share s[i]'s key.
func groupEnd[K Key](s []Entry[K], i int) int {
	j := i + 1
	for j < len(s) && s[j].Key == s[i].Key {
		j++
	}
	return j
}

// radixBits is the sort's digit width: 2 048 counters stay in L1 and two
// passes cover 4M vertex keys.
const radixBits = 11

// radixSort sorts src by key with a stable LSD radix sort alternating
// between the two buffers, and returns the sorted one first. Each pass's
// count also finds the widest key present, which sets how many passes run.
func radixSort[K Key](src, dst []Entry[K]) (sorted, spare []Entry[K]) {
	for shift, keyBits := 0, 1; shift < keyBits; shift += radixBits {
		var start [1 << radixBits]int32
		var or uint64
		for i := range src {
			k := uint64(src[i].Key)
			or |= k
			start[k>>shift&(1<<radixBits-1)]++
		}
		keyBits = bits.Len64(or)
		sum := int32(0)
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for i := range src {
			d := uint64(src[i].Key) >> shift & (1<<radixBits - 1)
			dst[start[d]] = src[i]
			start[d]++
		}
		src, dst = dst, src
	}
	return src, dst
}
