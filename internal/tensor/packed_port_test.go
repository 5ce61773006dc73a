package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestPackedPortGathers checks both gathers against a naive loop over
// lanes and bits, on a random arena whose rows outside the port must
// survive a set untouched and whose lanes past the batch hold garbage a
// get must not read.
func TestPackedPortGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{1, 8, 63, 64, 65, 80, 512} {
		for _, lanes := range []int{1, 63, 64, 65, 130, 256} {
			t.Run(fmt.Sprintf("w%d/l%d", width, lanes), func(t *testing.T) {
				words := PackedWords(lanes)
				rows := width + 7
				arena := make([]uint64, rows*words)
				for i := range arena {
					arena[i] = rng.Uint64()
				}
				slots := make([]int32, width)
				for i, r := range rng.Perm(rows)[:width] {
					slots[i] = int32(r)
				}
				stride := (width + 63) / 64
				bit := func(row, lane int) bool { return arena[row*words+lane/64]>>uint(lane%64)&1 == 1 }

				out := make([]uint64, lanes*stride)
				for i := range out {
					out[i] = rng.Uint64()
				}
				PackedGetPort(arena, words, slots, out, lanes)
				want := make([]uint64, lanes*stride)
				for b := range lanes {
					for i, s := range slots {
						if bit(int(s), b) {
							want[b*stride+i/64] |= 1 << uint(i%64)
						}
					}
				}
				if !slices.Equal(out, want) {
					t.Fatalf("PackedGetPort differs from the naive bit loop")
				}

				// Set from a value holding all but the last lane: that lane and
				// every lane past the batch read zero; other rows keep their bits.
				vals := make([]uint64, lanes*stride)
				for i := range vals {
					vals[i] = rng.Uint64()
				}
				before := slices.Clone(arena)
				PackedSetPort(arena, words, slots, vals[:(lanes-1)*stride], lanes)
				inPort := make([]bool, rows)
				for i, s := range slots {
					inPort[s] = true
					for b := range 64 * words {
						want := b < lanes-1 && vals[b*stride+i/64]>>uint(i%64)&1 == 1
						if bit(int(s), b) != want {
							t.Fatalf("PackedSetPort: bit %d lane %d is %v, want %v", i, b, !want, want)
						}
					}
				}
				for r := range rows {
					if !inPort[r] && !slices.Equal(arena[r*words:(r+1)*words], before[r*words:(r+1)*words]) {
						t.Fatalf("PackedSetPort wrote row %d, which is not a port row", r)
					}
				}
			})
		}
	}
}
