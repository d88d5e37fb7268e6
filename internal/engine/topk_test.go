package engine

import (
	"cmp"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestTopKMatchesStableSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		items := make([]int, n)
		for i := range items {
			// A narrow value range forces duplicates, the case where
			// selection could diverge from a stable sort if the order
			// were not total on content.
			items[i] = rng.Intn(10)
		}
		k := rng.Intn(n + 10)
		want := append([]int(nil), items...)
		sort.SliceStable(want, func(a, b int) bool { return want[a] < want[b] })
		if k < len(want) {
			want = want[:k]
		}
		got := topK(append([]int(nil), items...), k, cmp.Compare[int])
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d k=%d: topK=%v, stable sort prefix=%v", n, k, got, want)
		}
	}
}

func TestTopKZeroAndOversized(t *testing.T) {
	less := cmp.Compare[int]
	if got := topK([]int{3, 1, 2}, 0, less); len(got) != 0 {
		t.Errorf("k=0 returned %v", got)
	}
	if got := topK([]int{3, 1, 2}, 99, less); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("k>n returned %v", got)
	}
	if got := topK(nil, 5, less); len(got) != 0 {
		t.Errorf("empty input returned %v", got)
	}
}
