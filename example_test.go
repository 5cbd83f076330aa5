package repro_test

import (
	"fmt"
	"log"

	"repro"
)

// The paper's headline experiment: the TCP/IP ping-pong in the pessimal
// (BAD), standard (STD) and best (ALL) layouts. Same machine, same
// protocols, same packets — only the placement of the code differs.
func ExampleRun() {
	for _, v := range []repro.Version{repro.BAD, repro.STD, repro.ALL} {
		cfg := repro.DefaultConfig(repro.StackTCPIP, v)
		cfg.Samples = 1
		res, err := repro.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		s := res.First()
		fmt.Printf("%-4v roundtrip %6.1f us   processing %5.1f us   mCPI %.2f\n", v, res.TeMeanUS, s.TpUS, s.MCPI)
	}
	// Output:
	// BAD  roundtrip  449.8 us   processing 124.5 us   mCPI 4.11
	// STD  roundtrip  312.3 us   processing  54.2 us   mCPI 0.97
	// ALL  roundtrip  300.0 us   processing  47.5 us   mCPI 0.81
}
