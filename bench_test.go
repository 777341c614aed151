package datablocks_test

// BenchmarkTable2TPCH runs the paper's Table 2 matrix — every supported
// TPC-H query under every scan configuration — as Go benchmarks, for
// pprof and allocation loops on one query:
//
//	go test -run '^$' -bench 'Table2TPCH/^Q1$/\+PSMA' -benchmem -cpuprofile q1.prof .
//
// The regression benchmark under benchmark/ is the performance record;
// cmd/dbrepro prints the paper's tables.

import (
	"fmt"
	"sync"
	"testing"

	"datablocks/internal/exec"
	"datablocks/internal/experiments"
	"datablocks/internal/tpch"
)

const benchSF = 0.01 // ~15000 orders / ~60000 lineitems

var (
	benchOnce sync.Once
	benchHot  *tpch.DB
	benchCold *tpch.DB
)

func benchDBs(b *testing.B) (hot, cold *tpch.DB) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchHot, err = tpch.Generate(benchSF, 0); err != nil {
			panic(err)
		}
		if benchCold, err = tpch.Generate(benchSF, 0); err != nil {
			panic(err)
		}
		if err = benchCold.FreezeAll(false); err != nil {
			panic(err)
		}
	})
	return benchHot, benchCold
}

// BenchmarkTable2TPCH runs each supported TPC-H query under every Table 2
// scan configuration.
func BenchmarkTable2TPCH(b *testing.B) {
	hot, cold := benchDBs(b)
	for _, q := range tpch.SupportedQueries {
		for _, cfg := range experiments.Table2Configs {
			db := hot
			if cfg.Frozen {
				db = cold
			}
			b.Run(fmt.Sprintf("Q%d/%s", q, cfg.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q, exec.Options{Mode: cfg.Mode}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
