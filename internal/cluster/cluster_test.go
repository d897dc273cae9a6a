package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunStageBasic(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2})
	tasks := make([]Task, 10)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) { return i * i, nil }}
	}
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Errorf("result %d = %v", i, r)
		}
	}
	run, failed, _ := c.Stats()
	if run != 10 || failed != 0 {
		t.Errorf("run=%d failed=%d", run, failed)
	}
}

func TestTaskRetryOnFailure(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 1})
	// Task 3 fails on its first two attempts, succeeds on the third.
	c.InjectTaskFailure(func(taskIndex, attempt, nodeID int) error {
		if taskIndex == 3 && attempt < 2 {
			return errors.New("injected fault")
		}
		return nil
	})
	tasks := make([]Task, 5)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) { return i, nil }}
	}
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if results[3] != 3 {
		t.Errorf("result = %v", results[3])
	}
	_, failed, _ := c.Stats()
	if failed != 2 {
		t.Errorf("failed = %d, want 2", failed)
	}
}

func TestTaskExhaustsAttempts(t *testing.T) {
	c := New(Config{Nodes: 1, SlotsPerNode: 1, MaxAttempts: 3})
	c.InjectTaskFailure(func(taskIndex, attempt, nodeID int) error {
		if taskIndex == 0 {
			return errors.New("always fails")
		}
		return nil
	})
	_, err := c.RunStage([]Task{{Index: 0, Fn: func() (any, error) { return nil, nil }}})
	if err == nil {
		t.Fatal("expected stage failure")
	}
}

func TestTaskFnErrorRetries(t *testing.T) {
	var calls int32
	c := New(Config{Nodes: 1, SlotsPerNode: 1})
	task := Task{Index: 0, Fn: func() (any, error) {
		if atomic.AddInt32(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}}
	results, err := c.RunStage([]Task{task})
	if err != nil || results[0] != "ok" {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

func TestRescaling(t *testing.T) {
	c := New(Config{Nodes: 1, SlotsPerNode: 1})
	id := c.AddNode()
	if c.NumNodes() != 2 {
		t.Errorf("nodes = %d", c.NumNodes())
	}
	c.RemoveNode(id)
	if c.NumNodes() != 1 {
		t.Errorf("nodes = %d", c.NumNodes())
	}
	// Work still completes after scale-down.
	results, err := c.RunStage([]Task{{Index: 0, Fn: func() (any, error) { return 1, nil }}})
	if err != nil || results[0] != 1 {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

func TestSpeculativeExecution(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2, SpeculationMultiplier: 1.5,
		SpeculationMinRuntime: 10 * time.Millisecond})
	var slowRuns int32
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			if i == 7 {
				// Straggling attempt: the first run is very slow, a backup
				// copy returns quickly.
				if atomic.AddInt32(&slowRuns, 1) == 1 {
					time.Sleep(300 * time.Millisecond)
				}
				return "done", nil
			}
			time.Sleep(time.Millisecond)
			return "done", nil
		}}
	}
	start := time.Now()
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if results[7] != "done" {
		t.Errorf("result = %v", results[7])
	}
	_, _, speculated := c.Stats()
	if speculated == 0 {
		t.Error("no speculative copies launched for the straggler")
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("stage took %v; speculation should beat the 300ms straggler", elapsed)
	}
}

// TestSpeculationRespectsMedianMultiplier is the regression test for the
// monitor ignoring SpeculationMultiplier: a task moderately slower than
// the rest — past SpeculationMinRuntime but well under multiplier×median —
// must NOT get a backup copy.
func TestSpeculationRespectsMedianMultiplier(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2,
		SpeculationMultiplier: 3.0,
		SpeculationMinRuntime: time.Millisecond})
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			d := 40 * time.Millisecond
			if i == 7 {
				d = 60 * time.Millisecond // 1.5× median: not a straggler at 3×
			}
			time.Sleep(d)
			return i, nil
		}}
	}
	if _, err := c.RunStage(tasks); err != nil {
		t.Fatal(err)
	}
	if _, _, speculated := c.Stats(); speculated != 0 {
		t.Errorf("speculated %d backups for a task under multiplier×median", speculated)
	}
}

// TestSpeculationTriggersBeyondMedianMultiplier: the same shape of stage,
// but with the slow task well past multiplier×median, does get a backup.
func TestSpeculationTriggersBeyondMedianMultiplier(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2,
		SpeculationMultiplier: 1.5,
		SpeculationMinRuntime: time.Millisecond})
	var slowRuns int32
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			if i == 7 && atomic.AddInt32(&slowRuns, 1) == 1 {
				time.Sleep(400 * time.Millisecond) // ≫ 1.5 × ~10ms median
			} else {
				time.Sleep(10 * time.Millisecond)
			}
			return i, nil
		}}
	}
	start := time.Now()
	if _, err := c.RunStage(tasks); err != nil {
		t.Fatal(err)
	}
	if _, _, speculated := c.Stats(); speculated == 0 {
		t.Error("no backup launched for a task far beyond multiplier×median")
	}
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Errorf("stage took %v; the backup copy should beat the straggler", elapsed)
	}
}

// TestRemoveNodeWakesWaiters: tasks queued beyond remaining capacity still
// complete when a node is removed mid-stage, and the blocked acquirers are
// woken rather than left polling a vanished node's slots.
func TestRemoveNodeWakesWaiters(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 1})
	release := make(chan struct{})
	var once sync.Once
	tasks := make([]Task, 6)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			once.Do(func() {
				c.RemoveNode(1)
				close(release)
			})
			<-release
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.RunStage(tasks)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage hung after RemoveNode: waiters were not woken")
	}
	if c.NumNodes() != 1 {
		t.Errorf("nodes = %d", c.NumNodes())
	}
}

func TestInjectSlowdownStillCorrect(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 1})
	c.InjectSlowdown(0, 3.0)
	tasks := make([]Task, 6)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] != i {
			t.Errorf("result %d = %v", i, results[i])
		}
	}
}

// ---------------------------------------------------------------- virtual

// TestRunStageOrdersResultsByIndex checks that results come back in task
// order whatever order tasks finish in. Task i waits for task i+1, so the
// stage completes strictly in reverse index order.
func TestRunStageOrdersResultsByIndex(t *testing.T) {
	const n = 16
	c := New(Config{Nodes: 1, SlotsPerNode: n})
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			<-finished[i+1]
			defer close(finished[i])
			return i * 10, nil
		}}
	}
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*10 {
			t.Fatalf("slot %d = %v, want %d", i, r, i*10)
		}
	}
}

// TestRunStageReportsLowestFailedIndex checks that when tasks 0 and 2 both
// fail, every task still runs and the stage reports task 0, even though
// task 2 fails first.
func TestRunStageReportsLowestFailedIndex(t *testing.T) {
	c := New(Config{Nodes: 1, SlotsPerNode: 4, MaxAttempts: 1})
	boom := errors.New("boom")
	task2Failed := make(chan struct{})
	var ran atomic.Int64
	tasks := make([]Task, 4)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			ran.Add(1)
			switch i {
			case 0:
				<-task2Failed
				return nil, fmt.Errorf("task 0: %w", boom)
			case 2:
				defer close(task2Failed)
				return nil, fmt.Errorf("task 2: %w", boom)
			}
			return i, nil
		}}
	}
	_, err := c.RunStage(tasks)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "cluster: task 0 ") {
		t.Fatalf("err = %v, want task 0's wrapped boom", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("ran %d tasks, want all 4 to settle despite failures", n)
	}
}

// TestRunStagePanicBecomesError checks that a panicking task fails its
// stage with an error instead of killing the process, and that the
// cluster stays usable.
func TestRunStagePanicBecomesError(t *testing.T) {
	c := New(Config{Nodes: 1, SlotsPerNode: 2, MaxAttempts: 2})
	_, err := c.RunStage([]Task{{Index: 0, Fn: func() (any, error) { panic("kaboom") }}})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want the panic surfaced as an error", err)
	}
	if _, failed, _ := c.Stats(); failed != 2 {
		t.Fatalf("failed attempts = %d, want 2 (a panic is retried like an error)", failed)
	}
	res, err := c.RunStage([]Task{{Index: 0, Fn: func() (any, error) { return "ok", nil }}})
	if err != nil || res[0] != "ok" {
		t.Fatalf("cluster unusable after a panic: res=%v err=%v", res, err)
	}
}

// TestRunStageSettlesBeforeReportingFailure checks that a failed stage
// does not return while another task is still running: task 0 fails at
// once, task 1 blocks until the test releases it, and RunStage must
// return only after task 1 has finished.
func TestRunStageSettlesBeforeReportingFailure(t *testing.T) {
	c := New(Config{Nodes: 1, SlotsPerNode: 2, MaxAttempts: 1})
	started, release := make(chan struct{}), make(chan struct{})
	var released, task1Done atomic.Bool
	tasks := []Task{
		{Index: 0, Fn: func() (any, error) { return nil, errors.New("boom") }},
		{Index: 1, Fn: func() (any, error) {
			close(started)
			<-release
			task1Done.Store(true)
			return 1, nil
		}},
	}
	returned := make(chan error, 1)
	go func() {
		_, err := c.RunStage(tasks)
		if !task1Done.Load() {
			err = fmt.Errorf("RunStage returned (released=%v) while task 1 was still running: %v", released.Load(), err)
		}
		returned <- err
	}()
	<-started
	// The failed-attempt count rises just before a failure is reported,
	// so once it reads 1 an early-returning stage is already on its way
	// out. Yield (without sleeping) until task 0 has failed, then give
	// such a stage many more chances to return while task 1 is blocked.
	for {
		if _, failed, _ := c.Stats(); failed == 1 {
			break
		}
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		select {
		case err := <-returned:
			t.Fatalf("stage returned before task 1 was released: %v", err)
		default:
			runtime.Gosched()
		}
	}
	released.Store(true)
	close(release)
	err := <-returned
	if err == nil || !strings.Contains(err.Error(), "boom") || strings.Contains(err.Error(), "still running") {
		t.Fatalf("err = %v, want task 0's failure after task 1 settled", err)
	}
}

func TestVirtualStageMakespan(t *testing.T) {
	v := &VirtualCluster{Nodes: 2, SlotsPerNode: 2}
	// 8 tasks of 1s on 4 slots = 2s makespan.
	span, err := v.RunStage(UniformStage(8, 8.0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(span-2.0) > 1e-9 {
		t.Errorf("makespan = %v", span)
	}
	if v.Clock() != span {
		t.Errorf("clock = %v", v.Clock())
	}
}

func TestVirtualTaskOverhead(t *testing.T) {
	v := &VirtualCluster{Nodes: 1, SlotsPerNode: 1, TaskOverheadSec: 0.1}
	span, _ := v.RunStage(UniformStage(5, 5.0))
	if math.Abs(span-5.5) > 1e-9 {
		t.Errorf("makespan = %v", span)
	}
}

func TestVirtualStragglerNode(t *testing.T) {
	v := &VirtualCluster{Nodes: 2, SlotsPerNode: 1, NodeSpeed: map[int]float64{1: 0.5}}
	// 2 tasks of 1s: fast node does one in 1s, slow node takes 2s.
	span, _ := v.RunStage(UniformStage(2, 2.0))
	if math.Abs(span-2.0) > 1e-9 {
		t.Errorf("makespan = %v", span)
	}
}

func TestVirtualScalingIsNearLinear(t *testing.T) {
	// The property behind Fig 6b: with per-task overhead small relative to
	// work, doubling nodes roughly halves the makespan.
	model := EpochModel{
		MapCostPerRecord:     100e-9,
		ReduceCostPerGroup:   1e-6,
		ShuffleCostPerRecord: 50e-9,
		EpochOverheadSec:     0.01,
	}
	// Large epochs amortize the fixed per-epoch overhead, as sustained
	// throughput measurement does.
	const records, shuffled, groups = 100_000_000, 10_000, 100
	spanFor := func(nodes int) float64 {
		v := &VirtualCluster{Nodes: nodes, SlotsPerNode: 8, TaskOverheadSec: 0.001}
		span, err := v.SimulateEpoch(model, records, shuffled, groups, nodes*8, nodes*8)
		if err != nil {
			t.Fatal(err)
		}
		return span
	}
	t1, t20 := spanFor(1), spanFor(20)
	speedup := t1 / t20
	if speedup < 14 || speedup > 20.5 {
		t.Errorf("1→20 node speedup = %.1f, want near-linear (14–20)", speedup)
	}
}

func TestVirtualErrors(t *testing.T) {
	v := &VirtualCluster{}
	if _, err := v.RunStage(UniformStage(1, 1)); err == nil {
		t.Error("zero-node virtual cluster should error")
	}
}

func TestMedianDuration(t *testing.T) {
	ds := []time.Duration{3, 1, 2}
	if MedianDuration(ds) != 2 {
		t.Error("median")
	}
	if MedianDuration(nil) != 0 {
		t.Error("empty median")
	}
}

func BenchmarkRunStageOverhead(b *testing.B) {
	c := New(Config{Nodes: 1, SlotsPerNode: 1})
	task := []Task{{Index: 0, Fn: func() (any, error) { return nil, nil }}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunStage(task); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleVirtualCluster() {
	v := &VirtualCluster{Nodes: 4, SlotsPerNode: 2}
	span, _ := v.RunStage(UniformStage(16, 16))
	fmt.Printf("%.1fs\n", span)
	// Output: 2.0s
}
