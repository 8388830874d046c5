// Package radix implements the LSD (least-significant-digit) radix sorts
// behind the particle hot paths: byte-at-a-time counting passes over uint64
// key words, with constant bytes skipped entirely. On the integral SFC keys
// and particle ids this code sorts in practice, only the low two or three
// bytes of each word vary, so a sort costs a handful of linear passes
// instead of the n·log n interface-dispatched comparisons of sort.Sort.
//
// All entry points take an optional *Scratch so steady-state callers reuse
// the ping-pong buffers and allocate nothing.
package radix

import (
	"math"

	"picpar/internal/par"
)

// Scratch holds the ping-pong destination arrays of a radix sort, plus the
// per-worker histograms of the pairs driver. The zero value is ready
// to use; buffers grow on demand and are retained across calls.
type Scratch struct {
	hi2  []uint64
	lo2  []uint64
	idx2 []int32

	counts [][256]int32 // per-worker digit histograms
	dif    []uint64     // per-worker varying-byte accumulators (2 per worker)
	pass   parPass      // reusable task so steady-state calls allocate nothing
}

// grow sizes the ping-pong arrays for n keys. Short arrays are replaced
// with an eighth's headroom, so a caller whose sorts creep upwards in size
// reallocates geometrically rather than on every call.
func (sc *Scratch) grow(n, workers int) {
	if cap(sc.hi2) < n {
		c := n + n/8
		sc.hi2 = make([]uint64, n, c)
		sc.lo2 = make([]uint64, n, c)
		sc.idx2 = make([]int32, n, c)
	}
	sc.hi2 = sc.hi2[:n]
	sc.lo2 = sc.lo2[:n]
	sc.idx2 = sc.idx2[:n]
	if len(sc.counts) < workers {
		sc.counts = make([][256]int32, workers)
		sc.dif = make([]uint64, 2*workers)
	}
}

// insertionCutoff is the length below which a branchy insertion sort beats
// the histogram passes.
const insertionCutoff = 48

// Bits64 maps a float64 onto a uint64 whose unsigned order equals the
// float's < order for all non-NaN values. Negative zero is normalised to
// positive zero first, so values that compare equal under == map to equal
// bits. (NaN maps above +Inf or below −Inf depending on its sign bit and is
// outside this package's ordering guarantees.)
func Bits64(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 { // -0 → +0, keeping radix order ≡ comparison order
		b = 0
	}
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// SortPairs sorts the parallel arrays (hi, lo, idx) ascending by the
// composite key (hi, lo) — hi is the primary word, lo breaks ties — and
// returns the slices holding the sorted data. The returned slices may be
// sc's internal buffers rather than the inputs (LSD ping-pong), so callers
// must use the return values. The sort is stable with respect to equal
// (hi, lo) pairs. It is SortPairsPar on the nil (1-worker) pool.
func SortPairs(hi, lo []uint64, idx []int32, sc *Scratch) ([]uint64, []uint64, []int32) {
	return SortPairsPar(hi, lo, idx, sc, nil)
}

// SortKeysIndex stable-sorts keys ascending, carrying idx along, and
// returns the slices holding the sorted data (possibly sc's buffers).
// Because the counting passes are stable, entries with equal keys keep
// their input order — initialising idx to 0..n−1 therefore yields the
// (key, original index) order.
func SortKeysIndex(keys []uint64, idx []int32, sc *Scratch) ([]uint64, []int32) {
	n := len(keys)
	if n < 2 {
		return keys, idx
	}
	if n < insertionCutoff {
		insertionKeys(keys, idx)
		return keys, idx
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.grow(n, 0)
	var dif uint64
	k0 := keys[0]
	for i := 1; i < n; i++ {
		dif |= keys[i] ^ k0
	}
	keys2, idx2 := sc.hi2, sc.idx2
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		if (dif>>shift)&0xff == 0 {
			continue
		}
		var count [256]int32
		for _, v := range keys {
			count[uint8(v>>shift)]++
		}
		sum := int32(0)
		for d := 0; d < 256; d++ {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			d := uint8(keys[i] >> shift)
			pos := count[d]
			count[d] = pos + 1
			keys2[pos] = keys[i]
			idx2[pos] = idx[i]
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	sc.hi2, sc.idx2 = keys2, idx2
	return keys, idx
}

// insertionPairs sorts short (hi, lo, idx) triples in place by (hi, lo).
// Stable: strict comparisons never move equal composite keys past each
// other.
func insertionPairs(hi, lo []uint64, idx []int32) {
	for i := 1; i < len(hi); i++ {
		h, l, x := hi[i], lo[i], idx[i]
		j := i - 1
		for j >= 0 && (hi[j] > h || (hi[j] == h && lo[j] > l)) {
			hi[j+1], lo[j+1], idx[j+1] = hi[j], lo[j], idx[j]
			j--
		}
		hi[j+1], lo[j+1], idx[j+1] = h, l, x
	}
}

// parCutoff is the length below which the parallel passes' coordination
// overhead exceeds the histogram work; shorter inputs run every phase
// inline (the output is bit-identical either way).
const parCutoff = 4096

// parPass phases.
const (
	passDif = iota
	passHistogram
	passScatter
)

// parPass is the reusable par.Task implementing one phase of one counting
// pass: the varying-byte scan, the per-worker histogram, or the stable
// scatter. src is the word array supplying the current digit; the scatter
// phase moves (hiS, loS, idxS) → (hiD, loD, idxD).
type parPass struct {
	sc    *Scratch
	phase int
	shift uint
	src   []uint64
	hiS   []uint64
	loS   []uint64
	idxS  []int32
	hiD   []uint64
	loD   []uint64
	idxD  []int32
}

func (t *parPass) Work(w, lo, hi int) {
	switch t.phase {
	case passDif:
		// OR-accumulate the varying bytes over this worker's range; bitwise
		// OR is associative, so the cross-worker merge order cannot matter.
		// Constant bytes cannot change the order and their passes are skipped.
		var dl, dh uint64
		loS, hiS := t.loS[lo:hi], t.hiS[lo:hi]
		l0, h0 := t.loS[0], t.hiS[0]
		for i, l := range loS {
			dl |= l ^ l0
			dh |= hiS[i] ^ h0
		}
		t.sc.dif[2*w], t.sc.dif[2*w+1] = dl, dh
	case passHistogram:
		shift := t.shift
		var c [256]int32
		for _, v := range t.src[lo:hi] {
			c[uint8(v>>shift)]++
		}
		t.sc.counts[w] = c
	case passScatter:
		// c[d] was prefix-summed in (digit, worker) order, so this worker's
		// writes land after every lower worker's same-digit entries —
		// preserving input order within each digit: the stable pass.
		c := t.sc.counts[w]
		shift, src := t.shift, t.src
		hiS, loS, idxS := t.hiS, t.loS, t.idxS
		hiD, loD, idxD := t.hiD, t.loD, t.idxD
		for i := lo; i < hi; i++ {
			d := uint8(src[i] >> shift)
			pos := c[d]
			c[d] = pos + 1
			hiD[pos] = hiS[i]
			loD[pos] = loS[i]
			idxD[pos] = idxS[i]
		}
	}
}

// prefixCounts turns the per-worker histograms into global starting
// offsets: for each digit in ascending order, each worker's slot begins
// where the previous worker's same-digit entries end. This (digit, worker)
// enumeration is what makes a pass the same stable permutation at every
// worker count.
func (sc *Scratch) prefixCounts(workers int) {
	sum := int32(0)
	for d := 0; d < 256; d++ {
		for w := 0; w < workers; w++ {
			c := sc.counts[w][d]
			sc.counts[w][d] = sum
			sum += c
		}
	}
}

// SortPairsPar is the LSD pass driver behind SortPairs: per-worker
// histograms, (digit, worker)-order prefix sums, and a stable per-worker
// scatter, each phase one p.Run. The output — sorted contents and
// permutation — is bit-identical for every pool size (each counting pass
// produces the exact same stable permutation), so callers may mix worker
// counts freely. The nil or 1-worker pool, and any pool on inputs shorter
// than parCutoff, runs every phase inline on the caller.
func SortPairsPar(hi, lo []uint64, idx []int32, sc *Scratch, p *par.Pool) ([]uint64, []uint64, []int32) {
	n := len(hi)
	if n < 2 {
		return hi, lo, idx
	}
	if n < insertionCutoff {
		insertionPairs(hi, lo, idx)
		return hi, lo, idx
	}
	if n < parCutoff {
		p = nil
	}
	if sc == nil {
		sc = &Scratch{}
	}
	workers := p.Workers()
	sc.grow(n, workers)

	t := &sc.pass
	*t = parPass{sc: sc, phase: passDif, hiS: hi, loS: lo}
	p.Run(n, t)
	var difLo, difHi uint64
	for w := 0; w < workers; w++ {
		difLo |= sc.dif[2*w]
		difHi |= sc.dif[2*w+1]
	}

	hi2, lo2, idx2 := sc.hi2, sc.lo2, sc.idx2
	// LSD order: all lo bytes first, then all hi bytes; stability of each
	// counting pass makes the composite (hi, lo) order correct.
	for pass := 0; pass < 16; pass++ {
		shift := uint(8 * (pass & 7))
		src, dif := lo, difLo
		if pass >= 8 {
			src, dif = hi, difHi
		}
		if (dif>>shift)&0xff == 0 {
			continue
		}
		*t = parPass{sc: sc, phase: passHistogram, shift: shift, src: src}
		p.Run(n, t)
		sc.prefixCounts(workers)
		*t = parPass{sc: sc, phase: passScatter, shift: shift, src: src,
			hiS: hi, loS: lo, idxS: idx, hiD: hi2, loD: lo2, idxD: idx2}
		p.Run(n, t)
		hi, hi2 = hi2, hi
		lo, lo2 = lo2, lo
		idx, idx2 = idx2, idx
	}
	*t = parPass{}
	sc.hi2, sc.lo2, sc.idx2 = hi2, lo2, idx2
	return hi, lo, idx
}

// insertionKeys stable-sorts short (key, idx) pairs in place by key.
func insertionKeys(keys []uint64, idx []int32) {
	for i := 1; i < len(keys); i++ {
		k, x := keys[i], idx[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], idx[j+1] = keys[j], idx[j]
			j--
		}
		keys[j+1], idx[j+1] = k, x
	}
}
