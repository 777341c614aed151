package datablocks_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"datablocks"
	"datablocks/internal/xrand"
)

// crashDirEnv carries the database directory into the victim process:
// when set, the re-executed test binary runs only TestCrashChildMode,
// which writes against that directory until it is killed.
const crashDirEnv = "DATABLOCKS_CRASH_DIR"

// crashBackgroundEnv, when set, gives the victim's table background
// work (see crashOpts).
const crashBackgroundEnv = "DATABLOCKS_CRASH_BACKGROUND"

const crashTable = "events"

// crashOpts is the table configuration both sides of the kill test agree
// on: striped write path, write-ahead logging, modest chunks so freezes
// interleave with the kill window. With background set, the table also
// freezes every sealed chunk in the background and spills past a 64 KiB
// budget, on chunks small enough that the kill lands during background
// freezes, checkpoints and spills.
func crashOpts(background bool) []datablocks.TableOption {
	if background {
		return []datablocks.TableOption{
			datablocks.WithChunkRows(256),
			datablocks.WithWriteStripes(8),
			datablocks.WithWAL(),
			datablocks.WithAutoFreeze(1),
			datablocks.WithMemoryBudget(64 << 10),
		}
	}
	return []datablocks.TableOption{
		datablocks.WithChunkRows(2048),
		datablocks.WithWriteStripes(8),
		datablocks.WithWAL(),
	}
}

// crashAmount is the deterministic payload for a key, so the parent can
// verify every recovered row — acknowledged or not — without shipping
// values across the pipe.
func crashAmount(key int64) float64 { return float64(key%1_000_003) / 2 }

// TestCrashChildMode is the victim entry point for the kill -9 stress:
// TestKillRecoveryStress re-executes this test binary with crashDirEnv
// set, and this function then writes against that directory until the
// parent kills the process. In a normal test run the env is unset and it
// skips.
func TestCrashChildMode(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("victim mode: spawned by TestKillRecoveryStress")
	}
	if err := crashChild(dir, os.Getenv(crashBackgroundEnv) != ""); err != nil {
		t.Fatal(err)
	}
}

// TestKillRecoveryStress is the kill -9 recovery stress: rounds times
// over, it spawns this test binary as a crashChild victim writing through
// the striped WAL — every second round with background freezing and
// spilling (crashOpts) — SIGKILLs it at a random crash point mid-traffic,
// reopens the directory and asserts ZERO lost acknowledged writes — every
// insert or rename whose group commit acknowledged before the kill is
// present with its exact payload, an acknowledged rename's old key is
// gone, a rename in flight at the kill never destroys its acknowledged
// pre-update row without the new version surviving, and every recovered
// row carries a payload that was actually written.
func TestKillRecoveryStress(t *testing.T) {
	if testing.Short() {
		t.Skip("kill -9 stress skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0xC4A5)
	for round := 1; round <= 4; round++ {
		background := round%2 == 0
		threshold := 300 + rng.Range(0, 2000)
		if background {
			threshold = 3000 + rng.Range(0, 6000)
		}
		dir := t.TempDir()
		led, err := runVictim(exe, dir, threshold, background)
		if err != nil {
			t.Fatalf("round %d (background %v): %v", round, background, err)
		}
		recovered, err := verifyCrashImage(dir, led, background)
		if err != nil {
			t.Fatalf("round %d (background %v): %v", round, background, err)
		}
		t.Logf("round %d (background %v): killed at %d acknowledged writes (%d renames), recovered %d rows, 0 lost",
			round, background, len(led.acked), len(led.moved), recovered)
	}
}

// crashChild is the victim: it opens dir as a WAL-enabled database and
// runs concurrent writers forever. Each writer inserts rows (even key
// slots) and periodically renames one of its earlier rows to a fresh odd
// key — a key-changing update, usually crossing stripes, the WAL's
// two-record decomposition. The protocol on stdout:
//
//	ACK <key> #          insert of <key> acknowledged
//	MV? <old> <new> #    rename <old> → <new> about to be attempted
//	MV <old> <new> #     that rename acknowledged
//
// Every line is printed after (for MV?, before) the corresponding group
// commit, and the trailing '#' lets the parent discard the line the kill
// tore. Writer 0 checkpoints periodically so the kill also lands between
// manifest writes and log truncations.
func crashChild(dir string, background bool) error {
	cols := []datablocks.Column{
		{Name: "id", Kind: datablocks.Int64},
		{Name: "amount", Kind: datablocks.Float64},
		{Name: "status", Kind: datablocks.String},
	}
	db, err := datablocks.OpenPath(dir, crashOpts(background)...)
	if err != nil {
		return err
	}
	tbl, err := db.CreateTable(crashTable, cols, datablocks.WithPrimaryKey("id"))
	if err != nil {
		return err
	}
	const writers = 4
	var mu sync.Mutex // one line per write syscall, never interleaved
	errc := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 1_000_000_000
			for i := int64(0); ; i++ {
				key := base + 2*i // even slots: inserts
				row := datablocks.Row{
					datablocks.Int(key),
					datablocks.Float(crashAmount(key)),
					datablocks.Str("new"),
				}
				if _, err := tbl.Insert(row); err != nil {
					errc <- err
					return
				}
				mu.Lock()
				fmt.Fprintf(os.Stdout, "ACK %d #\n", key)
				mu.Unlock()
				if i%7 == 6 {
					// Rename an earlier own row to its odd neighbor slot.
					// Each old key is renamed at most once and rename
					// targets are never touched again, so the parent can
					// reason about every key's final owner.
					old := base + 2*(i-3)
					nk := old + 1
					mu.Lock()
					fmt.Fprintf(os.Stdout, "MV? %d %d #\n", old, nk)
					mu.Unlock()
					mv := datablocks.Row{
						datablocks.Int(nk),
						datablocks.Float(crashAmount(nk)),
						datablocks.Str("moved"),
					}
					if err := tbl.Update(old, mv); err != nil {
						errc <- err
						return
					}
					mu.Lock()
					fmt.Fprintf(os.Stdout, "MV %d %d #\n", old, nk)
					mu.Unlock()
				}
				if w == 0 && i%2000 == 1999 {
					if err := tbl.Freeze(); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return <-errc
}

// crashLedger is the parent's record of the victim's stdout protocol:
// which inserts were acknowledged, which renames were attempted and which
// of those were acknowledged.
type crashLedger struct {
	mu    sync.Mutex
	acked map[int64]bool  // keys whose latest acknowledged owner they are
	tried map[int64]int64 // old → new, rename attempt announced (MV?)
	moved map[int64]int64 // old → new, rename acknowledged (MV)
}

// runVictim spawns the child, collects the acknowledgement ledger off its
// stdout, kills it once threshold acks arrived (or after a 60s safety
// valve) and returns the ledger.
func runVictim(exe, dir string, threshold int64, background bool) (*crashLedger, error) {
	cmd := exec.Command(exe, "-test.run=^TestCrashChildMode$", "-test.v")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	if background {
		cmd.Env = append(cmd.Env, crashBackgroundEnv+"=1")
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = io.Discard
	if serr := cmd.Start(); serr != nil {
		return nil, serr
	}
	led := &crashLedger{
		acked: make(map[int64]bool),
		tried: make(map[int64]int64),
		moved: make(map[int64]int64),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			// Only complete lines count: the kill can tear the last line
			// mid-write, which the missing " #" marker reveals.
			if !strings.HasSuffix(line, " #") {
				continue
			}
			fields := strings.Fields(strings.TrimSuffix(line, " #"))
			led.mu.Lock()
			switch {
			case len(fields) == 2 && fields[0] == "ACK":
				if key, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					led.acked[key] = true
				}
			case len(fields) == 3 && (fields[0] == "MV?" || fields[0] == "MV"):
				old, err1 := strconv.ParseInt(fields[1], 10, 64)
				nk, err2 := strconv.ParseInt(fields[2], 10, 64)
				if err1 == nil && err2 == nil {
					if fields[0] == "MV?" {
						led.tried[old] = nk
					} else {
						// Acknowledged rename: the new key is now the
						// acknowledged owner, the old key must be gone.
						led.moved[old] = nk
						delete(led.acked, old)
						led.acked[nk] = true
					}
				}
			}
			led.mu.Unlock()
		}
	}()
	deadline := time.Now().Add(60 * time.Second)
	killed := false
	for {
		select {
		case <-done:
		default:
			led.mu.Lock()
			n := int64(len(led.acked))
			led.mu.Unlock()
			if !killed && (n >= threshold || time.Now().After(deadline)) {
				_ = cmd.Process.Kill() // SIGKILL: no handlers, no flushes
				killed = true
			}
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	err = cmd.Wait()
	if !killed {
		// The victim died on its own — a write failed; that error beat us
		// to the crash point.
		return nil, fmt.Errorf("victim exited before the kill (%v)", err)
	}
	return led, nil
}

// verifyCrashImage reopens the killed directory and checks the
// acknowledged-durability contract.
func verifyCrashImage(dir string, led *crashLedger, background bool) (int, error) {
	db, err := datablocks.OpenPath(dir, crashOpts(background)...)
	if err != nil {
		return 0, fmt.Errorf("reopen after kill: %w", err)
	}
	defer db.Close()
	tbl := db.Table(crashTable)
	if tbl == nil {
		return 0, fmt.Errorf("table %q not recovered after kill", crashTable)
	}
	lost := 0
	for key := range led.acked {
		row, ok := tbl.Lookup(key)
		if ok {
			if got := row[1].Float(); got != crashAmount(key) {
				return 0, fmt.Errorf("key %d recovered with amount %v, want %v", key, got, crashAmount(key))
			}
			continue
		}
		// The acknowledged key is absent. That is legal in exactly one
		// case: a rename of it was in flight at the kill and fully
		// applied durably — then the new version owns the row and nothing
		// acknowledged was lost. A missing new version means the delete
		// half became durable without the insert half: data loss.
		nk, inFlight := led.tried[key]
		if !inFlight {
			lost++
			continue
		}
		nrow, nok := tbl.Lookup(nk)
		if !nok || nrow[1].Float() != crashAmount(nk) {
			return 0, fmt.Errorf("key %d erased by in-flight rename to %d, but the new version did not survive (%v %v)",
				key, nk, nrow, nok)
		}
	}
	if lost > 0 {
		return 0, fmt.Errorf("lost %d of %d acknowledged writes", lost, len(led.acked))
	}
	// An acknowledged rename's both halves are durable: the old key must
	// not resurrect.
	for old, nk := range led.moved {
		if _, ok := tbl.Lookup(old); ok {
			return 0, fmt.Errorf("key %d resurrected after its acknowledged rename to %d", old, nk)
		}
	}
	// Integrity sweep: in-flight rows may legitimately survive, but every
	// surviving row must carry the payload its key was written with.
	res, err := tbl.Scan([]string{"id", "amount"}, nil,
		datablocks.QueryOptions{Mode: datablocks.ModeVectorizedSARG})
	if err != nil {
		return 0, err
	}
	for i := 0; i < res.NumRows(); i++ {
		key := res.Value(0, i).Int()
		if got := res.Value(1, i).Float(); got != crashAmount(key) {
			return 0, fmt.Errorf("recovered row %d carries amount %v, want %v", key, got, crashAmount(key))
		}
	}
	if res.NumRows() < len(led.acked) {
		return 0, fmt.Errorf("scan sees %d rows, %d were acknowledged", res.NumRows(), len(led.acked))
	}
	return res.NumRows(), nil
}
