package experiment_test

import (
	"fmt"
	"os"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
)

// A head-to-head on the simulated FABRIC dumbbell with everything else at
// the paper's defaults.
func ExampleRun() {
	res, err := experiment.Run(experiment.Config{
		Pairing:    experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: units.GigabitPerSec,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("BBRv1 %.0f Mbps, CUBIC %.0f Mbps, J=%.2f\n",
		res.SenderMbps(0), res.SenderMbps(1), res.Jain)
}

// Observers watch the same run: an iperf3-like per-second report on stdout
// and one iperf3-style JSON log per flow. They leave the result unchanged.
func ExampleRun_observers() {
	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       4,
		Bottleneck:     500 * units.MegabitPerSec,
		Duration:       10 * time.Second,
		FlowsPerSender: 5,
	}
	res, err := experiment.Run(cfg,
		experiment.IntervalReport(os.Stdout),
		experiment.FlowTraces("tcp-logs"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("utilization %.2f, retransmissions %d\n", res.Utilization, res.TotalRetransmits)
}
