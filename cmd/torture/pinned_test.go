package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultnet"
	"repro/internal/fuzz"
	"repro/internal/guard"
	"repro/internal/prog"
)

// TestSeededStreamsPinned holds every seeded derivation in the repository
// to the bytes it yields today: the torture schedules, a network plan, the
// chaos jitter stream, the per-cell seed derivation, the redispatch
// jitter, a generated fuzz program and a shrink. A change to how seeded
// schedules are represented, derived or shrunk must leave every row as it
// is; a row moves only in a commit that means to move it and says so.
func TestSeededStreamsPinned(t *testing.T) {
	retry := guard.Retry{Seed: 1, Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond}
	delays := func(key uint64) string {
		return fmt.Sprint(retry.Delay(key, 2), retry.Delay(key, 3), retry.Delay(key, 4))
	}
	type row struct {
		name string
		got  func() string
		want string
	}
	rows := []row{
		{"net plan seed 5", func() string { return faultnet.PlanFromSeed(5).String() },
			"drop@2,delay@20:11,duplicate@5,reset@8,truncation@17:49"},
		{"chaos(7,24) jitter", func() string {
			c := guard.NewChaos(7, 24)
			var js []int64
			for i := 0; i < 8; i++ {
				js = append(js, c.Jitter())
			}
			return fmt.Sprint(js)
		}, "[12 4 21 3 24 5 23 7]"},
		{"DeriveSeed(1, 0..3)", func() string {
			return fmt.Sprint(experiments.DeriveSeed(1, 0), experiments.DeriveSeed(1, 1),
				experiments.DeriveSeed(1, 2), experiments.DeriveSeed(1, 3))
		}, "-7995527694508729151 -4689498862643123097 -534904783426661026 8196980753821780235"},
		{"retry delay key 0", func() string { return delays(0) }, "10.995261ms 23.191494ms 57.95839ms"},
		{"retry delay key 0xfeed", func() string { return delays(0xfeed) }, "13.500035ms 23.726798ms 43.867579ms"},
		{"fuzz program", func() string {
			src, err := fuzz.RenderAsm(fuzz.Generate(experiments.DeriveSeed(20260808, 0), 2), prog.YieldBackoff)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%x", sha256.Sum256([]byte(src)))
		}, "c3392c42ccbfcfa9165a4747ed95c80f9b042e6b207461034b6a59e268edc900"},
		{"fuzz shrink at budget 40", func() string {
			// The sweep of fuzz.TestInjectedSchemeBugCaught.
			rep, err := fuzz.Sweep(context.Background(), fuzz.SweepConfig{
				Programs: 1, BaseSeed: 20260808, Threads: 2, Parallelism: 4, Quick: true,
				CorpusDir: t.TempDir(), Mut: fuzz.MutTASPlain, ShrinkBudget: 40,
				Limits: fuzz.Limits{MaxCycles: 1_500_000, MaxSteps: 1_000_000},
			})
			if err != nil {
				t.Fatal(err)
			}
			pr := rep.Programs[0]
			loaded, err := fuzz.LoadReproducer(pr.Repro)
			if err != nil {
				t.Fatal(err)
			}
			asm, err := os.ReadFile(filepath.Join(pr.Repro, "repro.s"))
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%d -> %d items, %d threads, %d phases, repro.s %x", pr.OrigItems, pr.ShrunkItems,
				loaded.Spec.Threads, len(loaded.Spec.Phases), sha256.Sum256(asm))
		}, "18 -> 0 items, 2 threads, 2 phases, repro.s 221369af0fb647b3d1a1541d2d1632412423e068f9c91be2b8bf6551e0d55566"},
	}
	for seed, want := range tortureSchedules {
		seed := int64(seed)
		rows = append(rows, row{fmt.Sprintf("torture seed %d", seed),
			func() string { return scheduleFromSeed(seed).String() }, want})
	}
	for _, r := range rows {
		if got := r.got(); got != r.want {
			t.Errorf("%s:\n got %s\nwant %s", r.name, got, r.want)
		}
	}
}

// tortureSchedules[s] is scheduleFromSeed(s), for seeds 0–20.
var tortureSchedules = []string{
	"disk{torn-write@3:46} client{drop@4,delay@3:12,duplicate@18,reset@8,truncation@10:58} w0{drop@13,delay@3:22,duplicate@16,reset@7,truncation@17:34} w1{drop@21,delay@16:42,duplicate@7,reset@10,truncation@17:31}",
	"disk{failed-sync@2} client{drop@15,delay@3:17,duplicate@17,reset@18,truncation@20:47} w0{drop@13,delay@11:46,duplicate@8,reset@20,truncation@21:21} w1{drop@6,delay@4:25,duplicate@13,reset@2,truncation@5:41}",
	"disk{enospc@683} client{drop@4,delay@15:32,duplicate@2,reset@6,truncation@21:39} w0{drop@9,delay@6:17,duplicate@11,reset@14,truncation@18:23} w1{drop@16,delay@10:47,duplicate@5,reset@18,truncation@11:9}",
	"disk{torn-write@2:15} client{drop@20,delay@19:43,duplicate@3,reset@21,truncation@16:56} w0{drop@21,delay@14:26,duplicate@20,reset@2,truncation@13:10} w1{drop@20,delay@10:35,duplicate@7,reset@18,truncation@8:17}",
	"disk{failed-sync@3} client{drop@10,delay@15:22,duplicate@18,reset@7,truncation@5:27} w0{drop@6,delay@18:39,duplicate@13,reset@17,truncation@5:8} w1{drop@6,delay@14:15,duplicate@9,reset@13,truncation@10:48}",
	"disk{enospc@1205} client{drop@9,delay@4:35,duplicate@12,reset@19,truncation@5:46} w0{drop@5,delay@20:11,duplicate@3,reset@15,truncation@12:57} w1{drop@4,delay@11:37,duplicate@7,reset@12,truncation@8:57}",
	"disk{torn-write@3:26} client{drop@9,delay@13:45,duplicate@3,reset@2,truncation@5:55} w0{drop@18,delay@15:47,duplicate@11,reset@16,truncation@4:39} w1{drop@2,delay@8:16,duplicate@14,reset@3,truncation@5:12}",
	"disk{failed-sync@2} client{drop@15,delay@2:42,duplicate@8,reset@21,truncation@13:4} w0{drop@8,delay@12:17,duplicate@13,reset@14,truncation@2:8} w1{drop@14,delay@13:17,duplicate@5,reset@17,truncation@16:6}",
	"disk{enospc@1495} client{drop@18,delay@19:11,duplicate@10,reset@9,truncation@14:61} w0{drop@10,delay@8:38,duplicate@19,reset@21,truncation@17:43} w1{drop@9,delay@20:44,duplicate@14,reset@17,truncation@3:59}",
	"disk{torn-write@6:39} client{drop@20,delay@6:16,duplicate@17,reset@3,truncation@16:15} w0{drop@12,delay@13:40,duplicate@8,reset@15,truncation@9:55} w1{drop@20,delay@3:20,duplicate@14,reset@17,truncation@4:25}",
	"disk{failed-sync@6} client{drop@5,delay@20:31,duplicate@13,reset@3,truncation@19:25} w0{drop@15,delay@14:47,duplicate@19,reset@6,truncation@13:15} w1{drop@10,delay@5:11,duplicate@20,reset@17,truncation@8:45}",
	"disk{enospc@1395} client{drop@16,delay@11:16,duplicate@3,reset@14,truncation@15:4} w0{drop@20,delay@3:43,duplicate@13,reset@18,truncation@19:51} w1{drop@10,delay@2:35,duplicate@5,reset@3,truncation@21:56}",
	"disk{torn-write@3} client{drop@13,delay@11:49,duplicate@2,reset@14,truncation@18:61} w0{drop@14,delay@3:27,duplicate@9,reset@4,truncation@16:53} w1{drop@6,delay@2:14,duplicate@5,reset@14,truncation@19:53}",
	"disk{failed-sync@6} client{drop@3,delay@19:32,duplicate@18,reset@13,truncation@11:16} w0{drop@12,delay@6:49,duplicate@7,reset@9,truncation@5:20} w1{drop@19,delay@16:42,duplicate@13,reset@12,truncation@8:45}",
	"disk{enospc@966} client{drop@10,delay@9:35,duplicate@6,reset@19,truncation@12:42} w0{drop@8,delay@11:18,duplicate@7,reset@3,truncation@16:19} w1{drop@6,delay@4:31,duplicate@19,reset@18,truncation@17:57}",
	"disk{torn-write@3:47} client{drop@5,delay@17:26,duplicate@6,reset@9,truncation@4:30} w0{drop@8,delay@5:14,duplicate@3,reset@20,truncation@6:43} w1{drop@11,delay@7:21,duplicate@5,reset@3,truncation@13:13}",
	"disk{failed-sync@3} client{drop@4,delay@16:36,duplicate@7,reset@2,truncation@20:16} w0{drop@15,delay@7:35,duplicate@14,reset@11,truncation@12:60} w1{drop@19,delay@10:30,duplicate@9,reset@14,truncation@16:45}",
	"disk{enospc@495} client{drop@10,delay@3:24,duplicate@19,reset@6,truncation@16:15} w0{drop@3,delay@15:42,duplicate@13,reset@14,truncation@19:27} w1{drop@6,delay@15:10,duplicate@21,reset@10,truncation@7:17}",
	"disk{torn-write@6:29} client{drop@17,delay@9:30,duplicate@20,reset@13,truncation@14:11} w0{drop@5,delay@20:44,duplicate@6,reset@13,truncation@14:5} w1{drop@9,delay@11:11,duplicate@8,reset@5,truncation@20:20}",
	"disk{failed-sync@4} client{drop@18,delay@14:10,duplicate@7,reset@9,truncation@8:29} w0{drop@21,delay@7:40,duplicate@16,reset@12,truncation@9:17} w1{drop@12,delay@20:18,duplicate@10,reset@17,truncation@15:41}",
	"disk{enospc@629} client{drop@16,delay@7:39,duplicate@14,reset@10,truncation@19:9} w0{drop@18,delay@16:10,duplicate@15,reset@10,truncation@17:22} w1{drop@2,delay@7:42,duplicate@16,reset@19,truncation@17:38}",
}
