package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// scratchDir is where the benchmark keeps everything it writes: inside
// the checkout, next to the driver's build directory.
const scratchDir = ".bench_build"

// svcJob is one job of the service workload with its expected output:
// the same cells as a direct loop, assembled and rendered in process
// exactly as cmd/experiments would print them.
type svcJob struct {
	spec  service.JobSpec
	cells []cellOut
	text  string
	json  []byte
}

func newSvcJob(spec service.JobSpec) (*svcJob, error) {
	j := &svcJob{spec: spec}
	sel := experiments.Selection(spec.Only)
	blob := map[string]any{}
	if spec.Uni != nil {
		cells, res, err := uniGridPass(*spec.Uni, nil)
		if err != nil {
			return nil, err
		}
		for i, c := range res.Cells {
			cells[i].digest = digestOf(c)
		}
		j.cells = append(j.cells, cells...)
		j.text += experiments.RenderUniSections(sel, res)
		blob["workstation"] = res
	}
	if spec.MP != nil {
		cells, res, err := mpGridPass(*spec.MP, nil)
		if err != nil {
			return nil, err
		}
		for i, c := range res.Cells {
			cells[i].digest = digestOf(c)
		}
		j.cells = append(j.cells, cells...)
		j.text += experiments.RenderMPSections(sel, res)
		blob["multiprocessor"] = res
	}
	var err error
	j.json, err = json.MarshalIndent(blob, "", "  ")
	return j, err
}

// svcGrid pushes three workload mixes of the quick workstation grid, one
// job of five cells each, and one quick multiprocessor application
// through a real coordinator: journal fsync per cell on a real directory,
// lease/complete over a loopback listener, one worker with one slot, one
// client polling for each result. Four jobs, twenty cells a pass.
func svcGrid(seed int64, smoke bool) (*workload, error) {
	uni := experiments.QuickUniConfig()
	mpc := experiments.QuickMPConfig()
	uni.Seed, mpc.Seed = seed, seed
	uni.Parallelism, mpc.Parallelism = 1, 1
	mpc.Apps = []string{"pthor"}
	names := []string{"IC", "DC", "FP"}
	if smoke {
		names = []string{"DC"}
		mpc.Apps = []string{"ocean"}
	}
	var jobs []*svcJob
	ref := &passOut{}
	add := func(spec service.JobSpec) error {
		j, err := newSvcJob(spec)
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
		ref.cells = append(ref.cells, j.cells...)
		ref.text += j.text
		return nil
	}
	for _, name := range names {
		u := uni
		u.Workloads = []string{name}
		if err := add(service.JobSpec{Uni: &u}); err != nil {
			return nil, err
		}
	}
	if err := add(service.JobSpec{MP: &mpc}); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "svc-")
	if err != nil {
		return nil, err
	}
	coord, err := service.NewCoordinator(service.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	base := "http://" + ln.Addr().String()
	client := &service.Client{Base: base}

	var lastJob int
	var lastRes service.JobResult
	var submit time.Duration
	// runJob is one closed-loop request: submit, serve with a worker that
	// lives for the job, wait for the result, check it. An idle worker
	// re-polls on the coordinator's retry hint (a quarter of the lease
	// TTL), so one kept across jobs would add a random share of that
	// interval to every job; one started with the job leases its first
	// cell at once.
	runJob := func(j *svcJob) ([]cellOut, string, error) {
		t0 := time.Now()
		id, cells, err := client.Submit(runCtx, j.spec)
		submit = time.Since(t0)
		if err != nil {
			return nil, "", fmt.Errorf("submit: %w", err)
		}
		wctx, stop := context.WithCancel(runCtx)
		done := make(chan error, 1)
		go func() {
			done <- service.NewWorker(service.WorkerConfig{
				Coordinator: base, Name: fmt.Sprintf("bench-%d", id),
				Slots: 1, PollInterval: 5 * time.Millisecond,
			}).Run(wctx)
		}()
		defer func() {
			stop()
			<-done
		}()
		if cells != len(j.cells) {
			return nil, "", fmt.Errorf("job has %d cells, want %d", cells, len(j.cells))
		}
		res, err := client.WaitResult(runCtx, id, 5*time.Millisecond)
		if err != nil {
			return nil, "", fmt.Errorf("wait: %w", err)
		}
		lastJob, lastRes = id, res

		// The cells of the job's JSON, checked one by one against the
		// in-process assembly; the text and the whole JSON must match too.
		var got struct {
			Workstation    *experiments.UniResult `json:"workstation"`
			Multiprocessor *experiments.MPResult  `json:"multiprocessor"`
		}
		if err := json.Unmarshal(res.JSON, &got); err != nil {
			return nil, "", fmt.Errorf("job JSON: %w", err)
		}
		out := append([]cellOut(nil), j.cells...)
		clean := res.Failures == 0 && res.Mismatches == 0 && string(res.JSON) == string(j.json)
		n := 0
		if got.Workstation != nil {
			for _, c := range got.Workstation.Cells {
				if n < len(out) {
					out[n].digest = digestOf(c)
					out[n].ok = clean && !c.Failed && !c.Skipped
				}
				n++
			}
		}
		if got.Multiprocessor != nil {
			for _, c := range got.Multiprocessor.Cells {
				if n < len(out) {
					out[n].digest = digestOf(c)
					out[n].ok = clean && c.Completed && !c.Failed && !c.Skipped
				}
				n++
			}
		}
		if n != len(out) {
			return nil, "", fmt.Errorf("job JSON holds %d cells, want %d", n, len(out))
		}
		return out, res.Text, nil
	}

	w := &workload{}
	w.close = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
		coord.Close()
		os.RemoveAll(dir)
	}
	w.programs = func() {
		buildUniPrograms(uni)
		buildMPPrograms(mpc)
	}
	w.pass = func(m *meter) (*passOut, error) {
		out := &passOut{}
		for _, j := range jobs {
			s := m.begin("job")
			cells, text, err := runJob(j)
			m.end(s)
			if err != nil {
				return nil, err
			}
			out.cells = append(out.cells, cells...)
			out.text += text
		}
		return out, nil
	}
	// The reference pass of this workload is the in-process assembly, so
	// even the first job is compared against bytes no service produced.
	w.reference = ref
	w.extras = func(x *extraCtx) error {
		// The same cells without the service: what dispatch, HTTP, JSON
		// and the journal add per cell is the difference.
		_, direct, err := timed(variantPasses, func() (*passOut, error) {
			for _, j := range jobs {
				if _, err := newSvcJob(j.spec); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			return err
		}
		x.out["service.cell_overhead_ms"] = (x.base - direct).Seconds() * 1e3 / float64(len(ref.cells))
		x.out["service.direct_loop_s"] = direct.Seconds()
		x.out["service.submit_ms"] = submit.Seconds() * 1e3
		x.out["service.dupes"] = float64(lastRes.Dupes)
		x.out["service.mismatches"] = float64(lastRes.Mismatches)
		ns, err := bulk(func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := client.Status(runCtx, lastJob); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		x.out["service.status_rtt_ms"] = ns * 1e-6
		ns, err = bulk(func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := client.Result(runCtx, lastJob); err != nil {
					return err
				}
			}
			return nil
		})
		x.out["service.result_ms"] = ns * 1e-6
		return err
	}
	return w, nil
}
