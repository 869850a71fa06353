package trace_test

import (
	"testing"

	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// BenchmarkSyntheticNext measures the generator layer alone: one op is
// one Synthetic.Next, so ns/instr is the cost an inline run pays per
// executed instruction and a producer pays off the run loop's CPU. It
// covers an L1-resident mix member (h26), a branchy one (sje) and a
// streaming one (lib). With -benchmem, allocs/op must be 0: CI's
// allocation budget gates it.
func BenchmarkSyntheticNext(b *testing.B) {
	for _, name := range []string{"h26", "sje", "lib"} {
		b.Run(name, func(b *testing.B) {
			bm, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g, err := bm.NewGenerator(1)
			if err != nil {
				b.Fatal(err)
			}
			var in trace.Instr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next(&in)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
		})
	}
}
