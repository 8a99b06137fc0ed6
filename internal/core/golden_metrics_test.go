package core

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/workload"
)

// gk is a golden KindMetrics record with float fields stored as exact IEEE
// 754 bit patterns.
type gk struct {
	arrived, released, skipped, completed, missed int64
	arrivedUtilBits, releasedUtilBits             uint64
	totalResponse, maxResponse                    int64
}

func (g gk) diff(t *testing.T, label string, k KindMetrics) {
	t.Helper()
	if k.Arrived != g.arrived || k.Released != g.released || k.Skipped != g.skipped ||
		k.Completed != g.completed || k.Missed != g.missed {
		t.Errorf("%s: counts {%d %d %d %d %d}, golden {%d %d %d %d %d}",
			label, k.Arrived, k.Released, k.Skipped, k.Completed, k.Missed,
			g.arrived, g.released, g.skipped, g.completed, g.missed)
	}
	if bits := math.Float64bits(k.ArrivedUtil); bits != g.arrivedUtilBits {
		t.Errorf("%s: ArrivedUtil bits 0x%016x, golden 0x%016x", label, bits, g.arrivedUtilBits)
	}
	if bits := math.Float64bits(k.ReleasedUtil); bits != g.releasedUtilBits {
		t.Errorf("%s: ReleasedUtil bits 0x%016x, golden 0x%016x", label, bits, g.releasedUtilBits)
	}
	if int64(k.TotalResponse) != g.totalResponse || int64(k.MaxResponse) != g.maxResponse {
		t.Errorf("%s: responses {%d %d}, golden {%d %d}",
			label, int64(k.TotalResponse), int64(k.MaxResponse), g.totalResponse, g.maxResponse)
	}
}

// goldenMetricsTable holds bit-exact Metrics captured from the seed
// simulation engine (the pre-pool container/heap + closure implementation,
// retained as internal/des reference_test.go) running one-minute Figure 5/6
// sweeps. The pooled engine must reproduce every field exactly: the typed
// event rewrite preserves (time, seq) event ordering, RNG draw order, and
// float accumulation order byte for byte, so any divergence here is a
// semantics change, not noise.
//
// Note: the float fields assume IEEE-strict evaluation; Go guarantees this
// per platform, and the table was captured on amd64 (the CI architecture).
//
// fired counts the events the run executed, link deliveries included: an
// event dropped, duplicated or added moves it even where the metrics hold.
//
// The three J_J_J rows were re-pinned when the ledger began counting
// utilization in exact integer units: a drained home processor now reads 0,
// not a floating-point residue, so the load balancer's ties go to the home
// as documented. Each row's first changed decision is such a tie; the other
// nine rows did not move.
var goldenMetricsTable = []struct {
	combo                      string
	figure, set                int
	fired                      int64 // the engine's Fired() after the run
	total, periodic, aperiodic gk
}{
	{"J_J_J", 5, 0, 1420,
		gk{132, 99, 33, 99, 0, 0x4043316d4e9282e5, 0x40386af3a74d00c1, 119787107070, 5255167054},
		gk{44, 42, 2, 42, 0, 0x402548e3c644d94a, 0x40239ebee4131731, 77426453758, 5255167054},
		gk{88, 57, 31, 57, 0, 0x403bbe68ba029922, 0x402d37286a86ea4d, 42360653312, 2251277486}},
	{"J_J_J", 5, 1, 2067,
		gk{181, 122, 59, 122, 0, 0x404dcd80ffba129a, 0x4042a73cf2bb7cbc, 112345553508, 4058093120},
		gk{53, 46, 7, 46, 0, 0x402716a0087d7cb5, 0x4022b6cc4e0cb103, 56414360060, 3223486280},
		gk{128, 76, 52, 76, 0, 0x404807d8fd9ab36b, 0x403bf313be70a0f5, 55931193448, 4058093120}},
	{"J_J_J", 6, 0, 946,
		gk{91, 84, 7, 84, 0, 0x4033171a9ea56619, 0x4030edde00fe3455, 109254093449, 5447234585},
		gk{55, 53, 2, 53, 0, 0x4022cc960db3ca7f, 0x4021248b06a52d71, 66123876273, 5447234585},
		gk{36, 31, 5, 31, 0, 0x4023619f2f9701b3, 0x4020b730fb573b3b, 43130217176, 1872612073}},
	{"T_T_T", 5, 0, 684,
		gk{132, 56, 76, 56, 0, 0x4043316d4e9282e5, 0x4025040d2e0a78a0, 67280202827, 4905181565},
		gk{44, 37, 7, 37, 0, 0x402548e3c644d94a, 0x4021288b19b4f3b4, 62057152538, 4905181565},
		gk{88, 19, 69, 19, 0, 0x403bbe68ba029922, 0x3ffedc10a2ac274f, 5223050289, 1346322915}},
	{"T_T_T", 5, 1, 859,
		gk{181, 49, 132, 49, 0, 0x404dcd80ffba129a, 0x40258dbdb26d8e67, 48980498714, 1368814805},
		gk{53, 47, 6, 47, 0, 0x402716a0087d7cb5, 0x402417abef0503c9, 47844938243, 1368814805},
		gk{128, 2, 126, 2, 0, 0x404807d8fd9ab36b, 0x3fe7611c3688a9d6, 1135560471, 821749646}},
	{"T_T_T", 6, 0, 447,
		gk{91, 62, 29, 62, 0, 0x4033171a9ea56619, 0x402433f332a30751, 76447577567, 5233154406},
		gk{55, 55, 0, 55, 0, 0x4022cc960db3ca7f, 0x4022cc960db3ca7f, 72309490220, 5233154406},
		gk{36, 7, 29, 7, 0, 0x4023619f2f9701b3, 0x3fe675d24ef3cd2f, 4138087347, 1712648900}},
	{"J_N_N", 5, 0, 667,
		gk{132, 48, 84, 48, 0, 0x4043316d4e9282e5, 0x401d478e4b5b1f6d, 43106358730, 3776668940},
		gk{44, 26, 18, 26, 0, 0x402548e3c644d94a, 0x4012b665966baff4, 35595598532, 3776668940},
		gk{88, 22, 66, 22, 0, 0x403bbe68ba029922, 0x4005225169dededf, 7510760198, 1346322915}},
	{"J_N_N", 5, 1, 921,
		gk{181, 39, 142, 39, 0, 0x404dcd80ffba129a, 0x4022917ed3648132, 38685017491, 1184853559},
		gk{53, 39, 14, 39, 0, 0x402716a0087d7cb5, 0x4022917ed3648132, 38685017491, 1184853559},
		gk{128, 0, 128, 0, 0, 0x404807d8fd9ab36b, 0x0000000000000000, 0, 0}},
	{"J_N_N", 6, 0, 512,
		gk{91, 56, 35, 56, 0, 0x4033171a9ea56619, 0x401873da5475c3ef, 37744841972, 1611294477},
		gk{55, 42, 13, 42, 0, 0x4022cc960db3ca7f, 0x400edf82e01869b0, 22429047709, 1439692056},
		gk{36, 14, 22, 14, 0, 0x4023619f2f9701b3, 0x40020831c8d31e24, 15315794263, 1611294477}},
	{"T_N_J", 5, 0, 708,
		gk{132, 53, 79, 53, 0, 0x4043316d4e9282e5, 0x4024ae8cb02eadde, 59463021883, 3146061775},
		gk{44, 37, 7, 37, 0, 0x402548e3c644d94a, 0x401dec6e0e798e4f, 52107092067, 3146061775},
		gk{88, 16, 72, 16, 0, 0x403bbe68ba029922, 0x4006e156a3c79ad9, 7355929816, 1346322915}},
	{"T_N_J", 5, 1, 1031,
		gk{181, 49, 132, 49, 0, 0x404dcd80ffba129a, 0x402e4d55257dc1ac, 47795021703, 2905718938},
		gk{53, 29, 24, 29, 0, 0x402716a0087d7cb5, 0x4020071f20fd7496, 32587964989, 1440818122},
		gk{128, 20, 108, 20, 0, 0x404807d8fd9ab36b, 0x401c8c6c09009a24, 15207056714, 2905718938}},
	{"T_N_J", 6, 0, 568,
		gk{91, 67, 24, 67, 0, 0x4033171a9ea56619, 0x402323c415b8b31d, 61916280405, 3184034251},
		gk{55, 48, 7, 48, 0, 0x4022cc960db3ca7f, 0x40159adfbcb37d14, 38960085441, 3184034251},
		gk{36, 19, 17, 19, 0, 0x4023619f2f9701b3, 0x4010aca86ebde928, 22956194964, 1659253771}},
}

// TestGoldenMetricsBitIdentical runs Figure 5/6 sweeps through the pooled
// simulation core and asserts Metrics bit-identical to the values the seed
// (reference) engine produced for the same seeds — the sim-level half of the
// differential proof (the engine-level half is internal/des's
// TestEngineDifferential).
func TestGoldenMetricsBitIdentical(t *testing.T) {
	for _, g := range goldenMetricsTable {
		cfg, err := ParseConfig(g.combo)
		if err != nil {
			t.Fatal(err)
		}
		var p workload.Params
		if g.figure == 5 {
			p = workload.Figure5Params(g.set)
		} else {
			p = workload.Figure6Params(g.set)
		}
		tasks, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimSystem(SimConfig{
			Strategies: cfg,
			NumProcs:   workload.MaxProc(tasks) + 1,
			Horizon:    time.Minute,
			Seed:       p.Seed ^ 0x5DEECE66D,
		}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.Run()
		label := func(part string) string {
			return g.combo + "/fig" + string(rune('0'+g.figure)) + "/set" + string(rune('0'+g.set)) + "/" + part
		}
		if got := sim.Engine().Fired(); got != g.fired {
			t.Errorf("%s: %d events fired, golden %d", label("engine"), got, g.fired)
		}
		g.total.diff(t, label("total"), m.Total)
		g.periodic.diff(t, label("periodic"), m.Periodic)
		g.aperiodic.diff(t, label("aperiodic"), m.Aperiodic)
	}
}

// sweepGolden pins every combination of the benchmark's sim-sweep shape (50
// processors, 10 000 tasks at target utilization 0.9, set 1, to 500 ms):
// arrived, released and completed jobs, the bits of the accepted-utilization
// ratio, and the engine's Fired count. At this size the pending set holds
// thousands of events and a task has many jobs in the ledger at once, which
// the Figure 5/6 rows above never reach.
var sweepGolden = []struct {
	combo                        string
	arrived, released, completed int64
	ratioBits                    uint64
	fired                        int64
}{
	{"T_N_N", 7690, 5332, 5332, 0x3fe4710f956f60f6, 44068},
	{"T_N_T", 7690, 5416, 5416, 0x3fe4ad1bf75ad2ad, 44316},
	{"T_N_J", 7690, 5010, 5010, 0x3fe49024020b0bd4, 48554},
	{"T_T_N", 7690, 7093, 7093, 0x3fed1551feb8663c, 55771},
	{"T_T_T", 7690, 7461, 7461, 0x3feec05f8e481030, 57062},
	{"T_T_J", 7690, 7359, 7359, 0x3feeae256903da0b, 61670},
	{"J_N_N", 7690, 5320, 5320, 0x3fe44313572f3758, 50878},
	{"J_N_T", 7690, 5444, 5444, 0x3fe47401ec102b05, 51353},
	{"J_N_J", 7690, 5464, 5464, 0x3fe46c3e15fdfd32, 51384},
	{"J_T_N", 7690, 7133, 7133, 0x3fed2bdacda14f22, 63539},
	{"J_T_T", 7690, 7500, 7500, 0x3feeef56bb0d8a72, 64984},
	{"J_T_J", 7690, 7523, 7523, 0x3fef12b3708555e3, 65221},
	{"J_J_N", 7690, 7528, 7528, 0x3fef1b4802b0e6b0, 65441},
	{"J_J_T", 7690, 7690, 7690, 0x3ff0000000000000, 66926},
	{"J_J_J", 7690, 7690, 7690, 0x3ff0000000000000, 67172},
}

// TestSweepScaleOutputsPinned runs all fifteen combinations at the sim-sweep
// shape and holds each to its pinned outputs.
func TestSweepScaleOutputsPinned(t *testing.T) {
	p := workload.ScaleParams(50, 10000, 1)
	p.TargetUtil = 0.9
	tasks, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	combos := AllCombinations()
	if len(combos) != len(sweepGolden) {
		t.Fatalf("%d combinations, %d pinned", len(combos), len(sweepGolden))
	}
	for i, c := range combos {
		g := sweepGolden[i]
		if c.String() != g.combo {
			t.Fatalf("combination %d is %s, pinned %s", i, c, g.combo)
		}
		sim, err := NewSimSystem(SimConfig{Strategies: c, NumProcs: 50, Horizon: 500 * time.Millisecond, Seed: 1}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.Run()
		if m.Total.Arrived != g.arrived || m.Total.Released != g.released || m.Total.Completed != g.completed {
			t.Errorf("%s: arrived/released/completed %d/%d/%d, pinned %d/%d/%d", g.combo,
				m.Total.Arrived, m.Total.Released, m.Total.Completed, g.arrived, g.released, g.completed)
		}
		if bits := math.Float64bits(m.AcceptedUtilizationRatio()); bits != g.ratioBits {
			t.Errorf("%s: accepted-utilization ratio bits %#016x, pinned %#016x", g.combo, bits, g.ratioBits)
		}
		if got := sim.Engine().Fired(); got != g.fired {
			t.Errorf("%s: %d events fired, pinned %d", g.combo, got, g.fired)
		}
	}
}

// workRow is one combination's work counts.
type workRow struct {
	combo                         string
	tests                         int64
	queued, sent, pushes, removes int64
	met, passed, summed, up, down int64
	recs, groups                  int64
}

// sweepWork pins the work each combination of the sim-sweep shape does (the
// sweepGolden runs): admission tests; the engine's timers queued, link sends
// and busy-heap pushes and removes; and the ledger's groups met, passed by
// the maxCount·grow skip and summed past it, group sums moved by rising and
// falling terms, and job records and groups taken from the heap. The counts
// do not depend on the host, so a change that moves one changed the work,
// and its description states the delta.
var sweepWork = []workRow{
	{"T_N_N", 6477, 9738, 24155, 14425, 14425, 509255, 499259, 9973, 399743, 280306, 3456, 1677},
	{"T_N_T", 6477, 9735, 24245, 14870, 14870, 508009, 483743, 24163, 436888, 294198, 3520, 1746},
	{"T_N_J", 6477, 10698, 27913, 14338, 14338, 423306, 419640, 3647, 502862, 378685, 3136, 1749},
	{"T_T_N", 6477, 13852, 27954, 21511, 21511, 594470, 593383, 1081, 557281, 339790, 5056, 1604},
	{"T_T_T", 6477, 13879, 28421, 22781, 22781, 638426, 636384, 2035, 621318, 364487, 5376, 1736},
	{"T_T_J", 6477, 15040, 31984, 22589, 22589, 614981, 614457, 522, 698416, 443692, 5312, 1742},
	{"J_N_N", 7690, 13010, 27749, 14401, 14401, 687005, 665395, 21454, 576579, 566411, 3520, 1677},
	{"J_N_T", 7690, 13134, 27874, 14913, 14913, 724089, 673780, 49858, 638776, 616952, 3584, 1752},
	{"J_N_J", 7690, 13154, 27874, 14912, 14912, 728627, 683214, 45122, 640481, 619296, 3584, 1759},
	{"J_T_N", 7690, 17887, 31606, 21671, 21671, 763074, 761653, 1416, 723381, 740554, 5120, 1607},
	{"J_T_T", 7690, 18048, 32079, 23093, 23093, 813471, 810274, 3179, 799892, 811014, 5440, 1731},
	{"J_T_J", 7690, 18162, 32151, 23057, 23057, 817900, 813759, 4117, 803271, 816070, 5440, 1736},
	{"J_J_N", 7690, 17739, 32800, 23521, 23521, 177361, 177123, 237, 174289, 162998, 5504, 453},
	{"J_J_T", 7690, 18272, 33367, 23631, 23631, 92096, 92096, 0, 92096, 89514, 5632, 276},
	{"J_J_J", 7690, 18398, 33487, 23463, 23463, 87968, 87968, 0, 87968, 84514, 5632, 299},
}

// workOf reads a finished simulation's work counts.
func workOf(combo string, sim *SimSystem) workRow {
	d, l := sim.Engine().Work(), sim.Controller().Stats.Ledger
	return workRow{combo, sim.Controller().Stats.Tests,
		d.Queued, d.Sent, d.BusyPushes, d.BusyRemoves,
		l.GroupsMet, l.GroupsPassed, l.GroupsSummed, l.SumMovesUp, l.SumMovesDown,
		l.RecsAllocated, l.GroupsAllocated}
}

// TestSweepWorkPinned runs all fifteen combinations at the sim-sweep shape
// and holds each to its pinned work counts.
func TestSweepWorkPinned(t *testing.T) {
	p := workload.ScaleParams(50, 10000, 1)
	p.TargetUtil = 0.9
	tasks, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	combos := AllCombinations()
	if len(combos) != len(sweepWork) {
		t.Fatalf("%d combinations, %d pinned", len(combos), len(sweepWork))
	}
	for i, c := range combos {
		sim, err := NewSimSystem(SimConfig{Strategies: c, NumProcs: 50, Horizon: 500 * time.Millisecond, Seed: 1}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		if got := workOf(c.String(), sim); got != sweepWork[i] {
			t.Errorf("work counts\n got    %+v\n pinned %+v", got, sweepWork[i])
		}
	}
}

// sweepScanBefore is the scannable heap each combination of the sim-sweep
// shape held when its job records and signature groups were linked by
// pointers (go1.24, amd64): a finished simulation, its build included.
var sweepScanBefore = map[string]uint64{
	"T_N_N": 4274888, "T_N_T": 4145776, "T_N_J": 4116312,
	"T_T_N": 4401272, "T_T_T": 4279456, "T_T_J": 4295624,
	"J_N_N": 4315920, "J_N_T": 4185280, "J_N_J": 3831736,
	"J_T_N": 4451864, "J_T_T": 4326528, "J_T_J": 3991952,
	"J_J_N": 4257856, "J_J_T": 4032368, "J_J_J": 3681640,
}

// TestSweepRunHeap holds what one simulation of the sim-sweep shape costs
// the collector, for each of the fifteen combinations: the bytes the whole
// request allocates (NewSimSystem and Run, from a collected heap), the
// objects Run allocates (a run that allocates per job or per growth step
// reads in the tens of thousands), the objects the finished simulation
// keeps live, and the scannable bytes it holds, at least 1 MB under
// sweepScanBefore because the ledger's records, groups and indexes and the
// task table's name index hold no pointers. The byte budget is what keeps a
// run to one collector cycle (DESIGN.md "What a simulation request
// allocates"): the forced collection before a request leaves the 2 MB task
// set live, so the first cycle starts near 4 MB and the next near twice
// what that one leaves live.
func TestSweepRunHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fifteen sweep-shape simulations")
	}
	const (
		maxRequestBytes = 3500000
		maxRunMallocs   = 2000
		maxLive         = 1000
		scanCut         = 1 << 20
	)
	p := workload.ScaleParams(50, 10000, 1)
	p.TargetUtil = 0.9
	tasks, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	samples := []metrics.Sample{{Name: "/gc/heap/objects:objects"}, {Name: "/gc/scan/heap:bytes"}}
	heap := func() (objects, scan int64) {
		runtime.GC()
		metrics.Read(samples)
		return int64(samples[0].Value.Uint64()), int64(samples[1].Value.Uint64())
	}
	for _, c := range AllCombinations() {
		objects0, scan0 := heap()
		var start, before, after runtime.MemStats
		runtime.ReadMemStats(&start)
		sim, err := NewSimSystem(SimConfig{Strategies: c, NumProcs: 50, Horizon: 500 * time.Millisecond, Seed: 1}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		sim.Run()
		runtime.ReadMemStats(&after)
		objects1, scan1 := heap()
		runtime.KeepAlive(sim)
		bytes, mallocs, live, scan := after.TotalAlloc-start.TotalAlloc, after.Mallocs-before.Mallocs, objects1-objects0, scan1-scan0
		t.Logf("%s: the request allocates %d bytes, Run %d objects; the simulation keeps %d live and %d scannable bytes", c, bytes, mallocs, live, scan)
		if bytes > maxRequestBytes && !raceEnabled {
			t.Errorf("%s: NewSimSystem + Run allocate %d bytes, want at most %d", c, bytes, maxRequestBytes)
		}
		if mallocs > maxRunMallocs {
			t.Errorf("%s: Run allocates %d objects, want at most %d", c, mallocs, maxRunMallocs)
		}
		if live > maxLive {
			t.Errorf("%s: the finished simulation keeps %d objects live, want at most %d", c, live, maxLive)
		}
		if want := int64(sweepScanBefore[c.String()]) - scanCut; scan > want {
			t.Errorf("%s: the finished simulation holds %d scannable bytes, want at most %d (%d before, less %d)", c, scan, want, sweepScanBefore[c.String()], scanCut)
		}
	}
}
