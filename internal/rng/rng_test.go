package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/64 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other and from the parent's stream.
	same12, sameP1 := 0, 0
	p := New(7)
	p.Split()
	p.Split()
	for i := 0; i < 64; i++ {
		v1, v2, vp := c1.Uint32(), c2.Uint32(), p.Uint32()
		if v1 == v2 {
			same12++
		}
		if v1 == vp {
			sameP1++
		}
	}
	if same12 > 2 || sameP1 > 2 {
		t.Fatalf("split streams overlap: child/child %d, child/parent %d", same12, sameP1)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(99).Split()
	b := New(99).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestCoinEdgeCases(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if r.Coin(0) {
			t.Fatal("Coin(0) returned true")
		}
		if !r.Coin(1) {
			t.Fatal("Coin(1) returned false")
		}
		if r.Coin(-0.5) {
			t.Fatal("Coin(-0.5) returned true")
		}
		if !r.Coin(1.5) {
			t.Fatal("Coin(1.5) returned false")
		}
	}
}

func TestCoinBias(t *testing.T) {
	r := New(13)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Coin(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Coin(%v) frequency = %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExpPositiveWithUnitMean(t *testing.T) {
	r := New(21)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.Exp()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp produced %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(17)
	trues := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	got := float64(trues) / draws
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("Bool frequency = %v", got)
	}
}

func BenchmarkUint32(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint32()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

// appendCoinsLoop is the per-item Coin loop AppendCoins must reproduce.
func appendCoinsLoop(r *RNG, dst, items []int32, ps []float64) []int32 {
	for i, v := range items {
		if r.Coin(ps[i]) {
			dst = append(dst, v)
		}
	}
	return dst
}

// TestAppendCoinsMatchesCoinLoop pins AppendCoins to the Coin loop it
// replaces: the same items appended, in order, and the generator left in
// the same state, across runs mixing p >= 1, p <= 0 and 0 < p < 1,
// empty and long runs, many seeds, and dst with and without spare room.
func TestAppendCoinsMatchesCoinLoop(t *testing.T) {
	special := []float64{1, 1.5, 0, -0.25, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
	for seed := uint64(0); seed < 200; seed++ {
		gen := New(seed + 1000)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			items := make([]int32, n)
			ps := make([]float64, n)
			for i := range items {
				items[i] = int32(gen.Intn(1 << 20))
				switch gen.Intn(4) {
				case 0:
					ps[i] = special[gen.Intn(len(special))]
				case 1:
					ps[i] = 1 / float64(1+gen.Intn(50))
				default:
					ps[i] = gen.Float64()
				}
			}
			prefix := []int32{-1, -2}
			a, b := New(seed), New(seed)
			want := appendCoinsLoop(a, append([]int32(nil), prefix...), items, ps)
			dst := make([]int32, len(prefix), len(prefix)+gen.Intn(n+2))
			copy(dst, prefix)
			got := b.AppendCoins(dst, items, ps)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d n %d: AppendCoins = %v, Coin loop = %v", seed, n, got, want)
			}
			if *a != *b || a.Uint32() != b.Uint32() {
				t.Fatalf("seed %d n %d: generator state diverged from the Coin loop", seed, n)
			}
		}
	}
}

// TestAppendCoinsDrawCount: a p >= 1 or p <= 0 item draws nothing and a
// 0 < p < 1 item draws exactly two Uint32.
func TestAppendCoinsDrawCount(t *testing.T) {
	r, ref := New(5), New(5)
	r.AppendCoins(nil, []int32{1, 2, 3, 4}, []float64{1, 0, 0.5, 2})
	ref.Uint32()
	ref.Uint32()
	if *r != *ref {
		t.Fatal("AppendCoins consumed other than two draws for one fractional coin")
	}
	if got := New(6).AppendCoins(nil, []int32{7, 8}, []float64{1, 0}); !slices.Equal(got, []int32{7}) {
		t.Fatalf("p=1 and p=0 items gave %v, want [7]", got)
	}
}

func benchCoinItems() ([]int32, []float64) {
	r := New(3)
	items := make([]int32, 6)
	ps := make([]float64, len(items))
	for i := range items {
		items[i] = int32(i)
		ps[i] = 1 / float64(1+r.Intn(12))
	}
	return items, ps
}

func BenchmarkCoinLoop(b *testing.B) {
	items, ps := benchCoinItems()
	r := New(1)
	dst := make([]int32, 0, len(items))
	for i := 0; i < b.N; i++ {
		dst = appendCoinsLoop(r, dst[:0], items, ps)
	}
}

func BenchmarkAppendCoins(b *testing.B) {
	items, ps := benchCoinItems()
	r := New(1)
	dst := make([]int32, 0, len(items))
	for i := 0; i < b.N; i++ {
		dst = r.AppendCoins(dst[:0], items, ps)
	}
}
