// Command benchmark is the repository's regression benchmark: four
// fixed-work workloads over the public datablocks API, fifteen end-to-end
// metrics per workload and, with -trace 1, about a hundred per-layer ones.
// See README.md in this directory.
//
// The driver runs
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"datablocks"
)

func main() {
	var (
		cfg        config
		traced     int
		child      string
		checkNoise int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: olap_frozen, olap_evicted, oltp_durable or hybrid_ch")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of lookup keys, transaction content and client streams (tpch.Generate's own seed is fixed)")
	flag.Float64Var(&cfg.seconds, "seconds", refSeconds, "sizes the fixed work: the counts are those of a run measuring about this long at the seed commit")
	flag.IntVar(&traced, "trace", 0, "1: traced run, prints the per-layer metrics and writes benchmark/out/trace-<workload>.json")
	flag.StringVar(&cfg.scale, "scale", "full", "full, or smoke (tests only, never reported)")
	flag.IntVar(&checkNoise, "check-noise", 0, "run every workload 2xN times in two alternating sets and compare the set medians with the committed bounds")
	flag.StringVar(&cfg.out, "out", filepath.Join("benchmark", "out"), "directory of the traced run's span file")
	flag.StringVar(&child, "child", "", "internal: run or restart")
	flag.StringVar(&cfg.dir, "dir", "", "internal: work directory of a child")
	flag.Int64Var(&cfg.t0, "t0", 0, "internal: spawn time of a restart child, UnixNano")
	flag.BoolVar(&cfg.verify, "verify", false, "internal: restart child re-answers every query, counts every table and, after a kill, looks every acknowledged row up")
	flag.Parse()
	cfg.traced = traced != 0

	var err error
	switch {
	case child == "run":
		err = runChild(cfg)
	case child == "restart":
		err = restartChild(cfg)
	case checkNoise > 0:
		err = checkNoiseCmd(cfg, checkNoise)
	default:
		err = parent(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// output is the last line of a run, in the driver's format.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parent runs one workload: a fresh child process for the run, then fresh
// child processes for the restarts, and prints the merged result.
func parent(cfg config, w io.Writer) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.report)
	line, err := json.Marshal(res.out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// workRoot picks where the durable directories live: tmpfs, so that fsync
// costs what the program makes it cost and not what the device does.
// /dev/shm when it is writable, else a directory inside the checkout.
func workRoot() (dir, fsName string, err error) {
	if probe, perr := os.MkdirTemp("/dev/shm", "dbbench-probe-*"); perr == nil {
		os.Remove(probe)
		return "/dev/shm", "tmpfs:/dev/shm", nil
	}
	dir = filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	return dir, "checkout:" + dir, nil
}

// workloadResult is one workload run as the parent sees it.
type workloadResult struct {
	out    *output
	report string     // human-readable table, printed before the result line
	calib  [2]float64 // host calibration before and after, ms
}

func runWorkload(cfg config) (*workloadResult, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	plan, err := wl.plan(cfg.scale, cfg.seconds, cfg.traced)
	if err != nil {
		return nil, err
	}
	root, fsName, err := workRoot()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "dbbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg.dir = dir

	calibBefore := calibrate()
	run, err := spawn(exe, cfg, "run", wl.kill)
	if err != nil {
		return nil, fmt.Errorf("run child: %w", err)
	}
	disk, err := dirBytes(dbDir(dir))
	if err != nil {
		return nil, err
	}
	// Each restart is scaled by the host's speed around it: the parent reads
	// it before the spawn and after the exit, the child after its first
	// answer.
	var recov, open, first, restartRef sample
	var replayed float64
	ref := newRefKernel()
	for i := 0; i < plan.restarts; i++ {
		rc := cfg
		rc.verify = i == 0
		hs := &hostSpeed{k: ref}
		hs.sample(3)
		res, err := spawn(exe, rc, "restart", false)
		if err != nil {
			return nil, fmt.Errorf("restart child: %w", err)
		}
		hs.sample(3)
		hs.ms = append(hs.ms, res.Ref...)
		run.add(res)
		recov = append(recov, res.Metrics["recovery_s"]*hs.scale())
		open = append(open, res.Metrics["open_s"])
		first = append(first, res.Metrics["first_query_ms"])
		restartRef = append(restartRef, hs.ms...)
		replayed = res.Metrics["replayed_records"]
	}
	calibAfter := calibrate()

	m := run.Metrics
	m["recovery_s"] = recov.median()
	m["disk_bytes_per_user_byte"] = float64(disk) / float64(run.UserBytes)
	run.Info["ref_ms.restart"] = fmt.Sprintf("%.3f", restartRef.median())
	if cfg.traced {
		l := run.Layer
		l["recovery.open_s"] = open.median()
		l["recovery.first_query_ms"] = first.median()
		l["wal.replayed_records"] = replayed
		if s := open.median(); s > 0 {
			l["wal.replay_mrec_per_s"] = replayed / s / 1e6
		}
		l["host.calib_ms"] = (calibBefore + calibAfter) / 2
		if d := calibAfter/calibBefore - 1; d > 0.15 || d < -0.15 {
			l["host.unstable"] = 1
		}
	}

	defs, values := endToEnd, m
	if cfg.traced {
		defs, values = perLayer, run.Layer
	}
	out := &output{Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !cfg.traced {
			missing = append(missing, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, n := range run.Attempted {
		out.Attempted += n
	}
	for _, n := range run.Failed {
		out.Failed += n
	}
	if len(missing) > 0 {
		run.Errors = append(run.Errors, "metrics not produced: "+strings.Join(missing, ", "))
	}
	out.Correct = out.Failed == 0 && len(run.Errors) == 0 && out.Attempted > 0

	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s seed=%d seconds=%g scale=%s trace=%v fs=%s gomaxprocs=%s clients=%s cycles=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.scale, cfg.traced, fsName, run.Info["gomaxprocs"], run.Info["clients"], run.Info["cycles"])
	fmt.Fprintf(&b, "host calibration: %.2f ms before, %.2f ms after\n", calibBefore, calibAfter)
	fmt.Fprintf(&b, "timings below are at reference speed: scaled by %.1f ms over the reference kernel's time beside each phase:", refNominalMs)
	var phases []string
	for k := range run.Info {
		if strings.HasPrefix(k, "ref_ms.") {
			phases = append(phases, k)
		}
	}
	sort.Strings(phases)
	for _, k := range phases {
		fmt.Fprintf(&b, " %s=%s", strings.TrimPrefix(k, "ref_ms."), run.Info[k])
	}
	b.WriteByte('\n')
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-34s %16.6g %-8s (%s is better)\n", d.Name, out.Metrics[d.Name].Value, d.Unit, d.Better)
	}
	classes := make([]string, 0, len(run.Attempted))
	for c := range run.Attempted {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  ops %-10s attempted %8d failed %8d\n", c, run.Attempted[c], run.Failed[c])
	}
	for _, e := range run.Errors {
		fmt.Fprintf(&b, "  ERROR %s\n", e)
	}
	return &workloadResult{out: out, report: b.String(), calib: [2]float64{calibBefore, calibAfter}}, nil
}

// spawn starts a child of this binary with two processors, reads its
// result line and waits for it to end. With kill it sends SIGKILL as soon
// as the result has arrived.
func spawn(exe string, cfg config, child string, kill bool) (*childResult, error) {
	args := []string{
		"-child", child, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-scale", cfg.scale, "-dir", cfg.dir, "-out", cfg.out,
		fmt.Sprintf("-verify=%v", cfg.verify),
	}
	if cfg.traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// A child that waits to be killed waits on this pipe, which closes if
	// the parent dies first.
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	defer stdin.Close()
	cmd.Args = append(cmd.Args, "-t0", fmt.Sprint(time.Now().UnixNano()))
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var res *childResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<28)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "RESULT "); ok {
			res = &childResult{}
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				res = nil
			}
			if kill {
				break
			}
		}
	}
	if kill || res == nil {
		_ = cmd.Process.Kill() // SIGKILL: no handlers, no flushes (and no orphan when the child misbehaved)
	}
	werr := cmd.Wait()
	if res == nil {
		return nil, fmt.Errorf("%s child printed no result (%v)", child, werr)
	}
	if !kill && werr != nil {
		return nil, fmt.Errorf("%s child: %w", child, werr)
	}
	return res, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// calibrate times a fixed arithmetic loop, in milliseconds: a reading of
// how fast the host is right now, taken before and after each workload.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		var acc uint64
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x
		}
		calibSink = acc
		if ms := float64(time.Since(t0)) / 1e6; best == 0 || ms < best {
			best = ms
		}
	}
	return best
}

var calibSink uint64

// restartChild is a fresh process that opens the database the run left
// behind, answers the family's first query and checks it. recovery_s runs
// from the moment the parent spawned this process to that first verified
// answer. It exits without Close, so that every restart of a run finds the
// directory in the same state (a killed run's log is replayed each time).
func restartChild(cfg config) error {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	plan, err := wl.plan(cfg.scale, cfg.seconds, cfg.traced)
	if err != nil {
		return err
	}
	res := childResult{Metrics: map[string]float64{}, Attempted: map[string]int{}, Failed: map[string]int{}}
	failf := func(format string, args ...any) {
		res.Failed["restart"]++
		res.Errors = append(res.Errors, fmt.Sprintf("restart: "+format, args...))
	}
	fam := wl.newFamily(plan, cfg.seed)
	openStart := time.Now()
	db, err := datablocks.OpenPath(dbDir(cfg.dir), wl.openOptions(plan)...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	openEnd := time.Now()
	if err := fam.bind(db); err != nil {
		return err
	}
	opt := datablocks.QueryOptions{Mode: datablocks.ModeVectorizedSARGPSMA, Parallelism: wl.queryPar}
	fq := fam.firstQuery()
	ans, err := fam.run(fq, opt)
	firstEnd := time.Now()
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	res.Metrics["recovery_s"] = float64(firstEnd.UnixNano()-cfg.t0) / 1e9
	hs := &hostSpeed{k: newRefKernel()}
	hs.sample(5)
	res.Ref = hs.ms
	res.Metrics["open_s"] = openEnd.Sub(openStart).Seconds()
	res.Metrics["first_query_ms"] = float64(firstEnd.Sub(openEnd)) / 1e6

	buf, err := os.ReadFile(filepath.Join(cfg.dir, "expect.json"))
	if err != nil {
		return err
	}
	var exp expectation
	if err := json.Unmarshal(buf, &exp); err != nil {
		return err
	}
	res.Attempted["restart"]++
	if err := equalRows(canon(ans), exp.Final[fq]); err != nil {
		failf("first query %s differs from its answer before the restart: %v", fam.queries()[fq], err)
	}
	var replayed uint64
	for _, tm := range db.Metrics().Tables {
		replayed += tm.Wal.Replayed
	}
	res.Metrics["replayed_records"] = float64(replayed)
	if cfg.verify {
		for qi, name := range fam.queries() {
			res.Attempted["restart"]++
			got, err := fam.run(qi, opt)
			if err != nil {
				failf("%s: %v", name, err)
				continue
			}
			if err := equalRows(canon(got), exp.Final[qi]); err != nil {
				failf("%s differs from its answer before the restart: %v", name, err)
			}
		}
		for name, want := range exp.Rows {
			res.Attempted["restart"]++
			tbl := db.Table(name)
			if tbl == nil {
				failf("table %s not recovered", name)
			} else if got := tbl.NumRows(); got != want {
				failf("table %s recovered with %d rows, expected %d", name, got, want)
			}
		}
	}
	if cfg.verify && wl.kill {
		res.Attempted["restart"]++
		if err := fam.verifyRecovered(db, exp.TxDone); err != nil {
			failf("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("RESULT %s\n", line)
	return nil
}
