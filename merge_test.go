package c2nn

// The Fig. 5 layer merge as a tested transform: nn.Merge applied to the
// canonical network must leave every observable bit where it was.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
)

// TestMergePreservesRandomCircuits is the property test of the pass on
// the pipeline generators: the merged model validates and lints clean,
// has ⌊layers/2⌋+1 layers with no interior linear one, leaves its source
// untouched, and matches it bit for bit — every output, every flip-flop
// — on all three backends (diffBackends).
func TestMergePreservesRandomCircuits(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(20260928))
	for trial := 0; trial < trials; trial++ {
		nIn := 2 + rng.Intn(10)
		nGates := 10 + rng.Intn(150)
		nFFs := rng.Intn(12)
		k := 2 + rng.Intn(9)
		batch := []int{1, 5, 64, 67}[rng.Intn(4)]
		nl := randomCircuit(rng, nIn, nGates, nFFs)
		if _, err := nl.Optimize(); err != nil {
			t.Fatalf("trial %d: optimize: %v", trial, err)
		}
		mapping, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
		if err != nil {
			t.Fatalf("trial %d (K=%d): map: %v", trial, k, err)
		}
		canonical, err := nn.Build(nl, mapping, nn.BuildOptions{L: k})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		t.Run(fmt.Sprintf("trial%d_K%d_ffs%d_batch%d", trial, k, nFFs, batch), func(t *testing.T) {
			before := saveBytes(t, canonical)
			merged, err := nn.Merge(canonical)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, saveBytes(t, canonical)) {
				t.Fatal("Merge modified its argument")
			}
			if ds := merged.Lint(); len(ds) != 0 {
				t.Fatalf("merged model lints: %v", ds)
			}
			layers := merged.Net.Layers
			if want := len(canonical.Net.Layers)/2 + 1; len(layers) != want {
				t.Fatalf("%d layers from %d, want %d", len(layers), len(canonical.Net.Layers), want)
			}
			for li := range layers {
				if !layers[li].Threshold && li != len(layers)-1 {
					t.Fatalf("layer %d of %d is linear", li, len(layers))
				}
			}
			diffBackends(t, canonical, 16, batch, int64(trial)*53+1, trial, merged)
		})
	}
}

func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
