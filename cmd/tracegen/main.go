// Command tracegen inspects the synthetic benchmark streams: it lists the
// benchmarks and prints the instruction mix of one benchmark's dynamic
// instruction stream. Simulations generate their streams from the
// benchmark profiles as they run; nothing is read from or written to a
// trace file.
//
// Examples:
//
//	tracegen -list
//	tracegen -benchmark gzip -n 50000 -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"hdsmt/internal/bench"
	"hdsmt/internal/isa"
	"hdsmt/internal/trace"
)

func main() {
	var (
		benchName = flag.String("benchmark", "", "benchmark whose stream to inspect (e.g. mcf)")
		n         = flag.Uint64("n", 1_000_000, "instructions to generate")
		stats     = flag.Bool("stats", false, "print the stream's instruction mix and how much of the program it executed")
		listAll   = flag.Bool("list", false, "list available benchmarks")
	)
	flag.Parse()

	switch {
	case *listAll:
		for _, b := range bench.All() {
			fmt.Printf("  %-8s %s\n", b.Name, b.Class)
		}
	case *stats && *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fail(err)
		}
		printStats(b, *n)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printStats(b bench.Benchmark, n uint64) {
	prog, err := b.Build(0)
	if err != nil {
		fail(err)
	}
	s := trace.NewStream(prog, b.Params.Seed, 0)
	counts := map[isa.Class]uint64{}
	taken := uint64(0)
	var branches uint64
	// executed marks each static instruction the stream reached: a stream
	// caught in a few blocks it cannot leave covers little of the program.
	executed, covered := make([]bool, prog.Len()), 0
	var in isa.Instruction
	for i := uint64(0); i < n; i++ {
		s.NextInto(&in)
		counts[in.Class]++
		if st, _ := prog.StaticAt(in.PC); !executed[st.Index] {
			executed[st.Index] = true
			covered++
		}
		if in.Class == isa.Branch {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	fmt.Printf("%s (%s), %d instructions:\n", b.Name, b.Class, n)
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		fmt.Printf("  %-7s %8d (%5.2f%%)\n", c, counts[c], 100*float64(counts[c])/float64(n))
	}
	if branches > 0 {
		fmt.Printf("  conditional taken rate: %.2f%%\n", 100*float64(taken)/float64(branches))
	}
	fmt.Printf("  static instructions executed: %d of %d\n", covered, prog.Len())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
