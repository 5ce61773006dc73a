// UART LUT-size sweep: reproduces Fig. 6 of the paper on the UART
// benchmark. For each L it reports the NN layer count and connection
// count, and the single-stimulus simulation time in parallel ("GPU"
// analogue) and sequential (CPU) modes — showing that parallel time
// tracks depth (~1/log2 L) while sequential time tracks connections
// (~2^L).
//
//	go run ./examples/uart_sweep [-min 2] [-max 11]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"c2nn/internal/bench"
)

func main() {
	minL := flag.Int("min", 2, "smallest LUT size")
	maxL := flag.Int("max", 11, "largest LUT size")
	flag.Parse()

	fig6, err := bench.Lookup("fig6")
	if err != nil {
		log.Fatal(err)
	}
	env, err := fig6.Env(false)
	if err != nil {
		log.Fatal(err)
	}
	env.Ls = nil
	for l := *minL; l <= *maxL; l++ {
		env.Ls = append(env.Ls, l)
	}
	env.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	rows, err := fig6.Run(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(bench.Render(fig6, rows))

	// Correlate, as Fig. 6 does: parallel time vs layers, sequential
	// time vs connections.
	at := func(l int, metric string) float64 {
		for _, r := range rows {
			if r.L == l && r.Metric == metric {
				return r.Value
			}
		}
		return 0
	}
	fmt.Printf("\nlayers:      L=%d -> %.0f,  L=%d -> %.0f  (decreasing, ~1/log2 L)\n",
		*minL, at(*minL, "layers"), *maxL, at(*maxL, "layers"))
	fmt.Printf("connections: L=%d -> %.0f,  L=%d -> %.0f  (increasing, ~2^L)\n",
		*minL, at(*minL, "connections"), *maxL, at(*maxL, "connections"))
}
