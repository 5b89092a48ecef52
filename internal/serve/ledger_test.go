package serve

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The restart round trip the file ledger exists for: a sweep served by one
// process is replayed by the next from the JSONL file alone — a fresh
// engine does zero builds, every cell arrives marked "ledger", and the
// payload is bit-identical.
func TestFileLedgerReplaysAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")

	led1, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewServer(Config{Ledger: led1})
	ts1 := httptest.NewServer(s1)
	first, status := readStream(t, postSweep(t, ts1, "/v1/sweeps", rowBody))
	ts1.Close()
	s1.Close()
	if err := led1.Close(); err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone {
		t.Fatalf("cold sweep ended %q (error %q)", status.State, status.Error)
	}
	first = byIndex(t, first)

	led2, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led2.Close() })
	if st := led2.Stats(); st.Entries != len(first) || st.Backend != path {
		t.Fatalf("replayed ledger stats %+v, want %d entries from %s", st, len(first), path)
	}
	_, ts2 := newTestServer(t, Config{Ledger: led2})
	second, status2 := readStream(t, postSweep(t, ts2, "/v1/sweeps", rowBody))
	if status2.State != StateDone {
		t.Fatalf("replayed sweep ended %q (error %q)", status2.State, status2.Error)
	}
	second = byIndex(t, second)
	st := getStats(t, ts2)
	if st.Engine.Builds != 0 {
		t.Errorf("replayed sweep built %d structures on a fresh engine, want 0", st.Engine.Builds)
	}
	if st.Ledger.Hits < int64(len(second)) {
		t.Errorf("ledger hits = %d, want >= %d", st.Ledger.Hits, len(second))
	}
	for i := range first {
		if second[i].Source != "ledger" {
			t.Errorf("replayed cell %d has source %q, want %q", i, second[i].Source, "ledger")
		}
		if first[i] != stripSource(second[i]) {
			t.Errorf("cell %d changed across restart:\n  %+v\n  %+v", i, first[i], second[i])
		}
	}
}

// A torn trailing line — the shape a crash mid-append leaves behind — must
// not poison replay of the intact prefix.
func TestFileLedgerSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")
	led, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	led.Put("cell-a", CellRecord{Distance: 3, LogicalRate: 0.5, Trials: 10})
	led.Put("cell-b", CellRecord{Distance: 5, LogicalRate: 0.25, Trials: 10})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"cell-c","cell":{"dist`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := OpenFileLedger(path)
	if err != nil {
		t.Fatalf("torn tail made the ledger unopenable: %v", err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.Entries != 2 {
		t.Errorf("replayed %d entries past a torn tail, want 2", st.Entries)
	}
	if rec, ok := reopened.Get("cell-b"); !ok || rec.Distance != 5 {
		t.Errorf("intact entry lost: %+v, %v", rec, ok)
	}
	if _, ok := reopened.Get("cell-c"); ok {
		t.Error("torn entry resurrected")
	}
}

// The record appended after a torn tail must survive the next restart:
// opening the ledger repairs the unterminated line so the append starts on
// a line of its own instead of being glued onto the torn bytes.
func TestFileLedgerAppendAfterTornTailSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")
	writeLedgerFile(t, path, ledgerLine(t, "cell-a", CellRecord{Distance: 3, Trials: 10})+`{"key":"cell-c","cell":{"dist`)

	led, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	want := CellRecord{Distance: 7, LogicalRate: 0.125, Trials: 20}
	led.Put("cell-d", want)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec, ok := reopened.Get("cell-d"); !ok || rec != want {
		t.Errorf("record appended after a torn tail lost on restart: %+v, %v", rec, ok)
	}
	if st := reopened.Stats(); st.Entries != 2 {
		t.Errorf("replayed %d entries, want 2 (cell-a, cell-d)", st.Entries)
	}
}

// An unterminated final line that still parses (a crash between the record
// and its newline) is kept, and the next append lands on a fresh line.
func TestFileLedgerKeepsCompleteUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")
	line := ledgerLine(t, "cell-a", CellRecord{Distance: 3, Trials: 10})
	writeLedgerFile(t, path, line[:len(line)-1])

	led, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	led.Put("cell-b", CellRecord{Distance: 5, Trials: 10})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, key := range []string{"cell-a", "cell-b"} {
		if _, ok := reopened.Get(key); !ok {
			t.Errorf("%s lost across restart", key)
		}
	}
}

// A line longer than the 4 MiB record bound is corrupt, like any other bad
// line: it is skipped, and the lines around it still replay.
func TestFileLedgerSkipsOverlongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")
	long := `{"key":"huge","cell":{"scheme":"` + strings.Repeat("x", maxLedgerLine) + "\"}}\n"
	writeLedgerFile(t, path, ledgerLine(t, "cell-a", CellRecord{Trials: 1})+long+ledgerLine(t, "cell-b", CellRecord{Trials: 2}))

	led, err := OpenFileLedger(path)
	if err != nil {
		t.Fatalf("over-long line made the ledger unopenable: %v", err)
	}
	defer led.Close()
	if st := led.Stats(); st.Entries != 2 {
		t.Errorf("replayed %d entries, want 2", st.Entries)
	}
	if _, ok := led.Get("huge"); ok {
		t.Error("over-long line replayed")
	}
	if rec, ok := led.Get("cell-b"); !ok || rec.Trials != 2 {
		t.Errorf("line after the over-long one lost: %+v, %v", rec, ok)
	}
}

// FuzzLedgerReplay feeds arbitrary bytes to OpenFileLedger as a ledger
// file. Replay must not fail or panic, must only hold non-empty keys, and
// a record Put after the replay must come back on the next open.
func FuzzLedgerReplay(f *testing.F) {
	a := `{"key":"cell-a","cell":{"distance":3,"trials":10}}` + "\n"
	b := `{"key":"cell-b","cell":{"distance":5,"trials":20}}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(a + b))
	f.Add([]byte(a + `{"key":"cell-c","cell":{"dist`))
	f.Add([]byte(a + "not json\n\n{}\n" + `{"key":"","cell":{}}` + "\n" + b))
	f.Add([]byte(a + `{"key":"cell-a","cell":{"distance":7}}` + "\n" + a))
	f.Add([]byte(strings.TrimSuffix(a, "\n")))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ledger")
		writeLedgerFile(t, path, string(data))
		led, err := OpenFileLedger(path)
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		replayed := led.(*fileLedger).cells
		for key := range replayed {
			if key == "" {
				t.Fatal("replayed an empty key")
			}
		}
		key := "fuzz-put"
		for hasKey(replayed, key) {
			key += "+"
		}
		want := CellRecord{Distance: 9, LogicalRate: 0.5, Trials: 42}
		led.Put(key, want)
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenFileLedger(path)
		if err != nil {
			t.Fatalf("reopen after Put failed: %v", err)
		}
		defer reopened.Close()
		if rec, ok := reopened.Get(key); !ok || rec != want {
			t.Fatalf("record put after replay lost on reopen: %+v, %v", rec, ok)
		}
	})
}

func hasKey(m map[string]CellRecord, key string) bool {
	_, ok := m[key]
	return ok
}

func ledgerLine(t *testing.T, key string, rec CellRecord) string {
	t.Helper()
	buf, err := json.Marshal(ledgerEntry{Key: key, Cell: rec})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf) + "\n"
}

func writeLedgerFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Duplicate Puts keep the first record and append once — the property that
// makes concurrent leaders and no_cache re-derivations harmless.
func TestLedgerDuplicatePutsAreIdempotent(t *testing.T) {
	led := NewMemLedger()
	led.Put("k", CellRecord{Trials: 1})
	led.Put("k", CellRecord{Trials: 2})
	if st := led.Stats(); st.Entries != 1 || st.Appends != 1 {
		t.Errorf("stats %+v, want 1 entry / 1 append", st)
	}
	if rec, _ := led.Get("k"); rec.Trials != 1 {
		t.Errorf("second Put overwrote the first: %+v", rec)
	}
}

// canonicalRecord strips exactly the job-local fields.
func TestCanonicalRecordStripsJobLocalFields(t *testing.T) {
	rec := CellRecord{Index: 7, Source: sourceCoalesced, Distance: 3, Trials: 100, Failures: 4}
	got := canonicalRecord(rec)
	want := CellRecord{Distance: 3, Trials: 100, Failures: 4}
	if got != want {
		t.Errorf("canonicalRecord(%+v) = %+v, want %+v", rec, got, want)
	}
}

// A single job holding the same cell twice coalesces it with itself: the
// leader entry created for the first copy feeds the second, so the cell
// decodes once. Deterministic — no cross-job race needed — because both
// copies are planned in the same pass.
func TestIntraJobDuplicateCellsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"scheme":"baseline","distances":[3],"rates":[0.008,0.008],"trials":300,"seed":7}`
	cells, status := readStream(t, postSweep(t, ts, "/v1/sweeps", body))
	if status.State != StateDone {
		t.Fatalf("sweep ended %q (error %q)", status.State, status.Error)
	}
	if len(cells) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(cells))
	}
	if got := s.decShots.Load(); got != 300 {
		t.Errorf("decoded %d shots for twin cells, want 300 (one execution)", got)
	}
	st := getStats(t, ts)
	if st.Ledger.CoalesceHits != 1 {
		t.Errorf("coalesce hits = %d, want 1", st.Ledger.CoalesceHits)
	}
	bySource := map[string]int{}
	for _, c := range cells {
		bySource[c.Source]++
	}
	if bySource[""] != 1 || bySource[sourceCoalesced] != 1 {
		t.Errorf("sources %v, want one engine cell and one coalesced", bySource)
	}
	a, b := cells[0], cells[1]
	a.Index, b.Index = 0, 0
	if stripSource(a) != stripSource(b) {
		t.Errorf("twin cells diverged:\n  %+v\n  %+v", cells[0], cells[1])
	}
}

// Coalescer protocol unit test: ledger-first probing, single leadership,
// follower hand-off on resolve, and re-planning after abort.
func TestCoalescerPlanResolveAbort(t *testing.T) {
	led := NewMemLedger()
	c := newCoalescer()

	plan, _, e1 := c.planCell(led, "k")
	if plan != planLead || e1 == nil {
		t.Fatalf("first plan = %v, want lead", plan)
	}
	plan, _, e2 := c.planCell(led, "k")
	if plan != planFollow || e2 != e1 {
		t.Fatalf("second plan = %v (entry %p vs %p), want follow of the leader's entry", plan, e2, e1)
	}
	if c.pendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", c.pendingCount())
	}

	// Leader aborts: the follower's entry closes without a result and the
	// next plan claims fresh leadership.
	c.abort("k", e1)
	<-e1.done
	if e1.ok {
		t.Error("aborted entry reports ok")
	}
	plan, _, e3 := c.planCell(led, "k")
	if plan != planLead || e3 == e1 {
		t.Fatalf("post-abort plan = %v, want a fresh leadership", plan)
	}

	// Resolve with the ledger write first: later plans are ledger-served.
	rec := CellRecord{Distance: 3, Trials: 42}
	led.Put("k", rec)
	c.resolve("k", e3, rec)
	<-e3.done
	if !e3.ok || e3.rec != rec {
		t.Errorf("resolved entry = ok %v rec %+v, want the record", e3.ok, e3.rec)
	}
	plan, got, _ := c.planCell(led, "k")
	if plan != planLedger || got != rec {
		t.Errorf("post-resolve plan = %v / %+v, want ledger-served record", plan, got)
	}
	if c.pendingCount() != 0 {
		t.Errorf("pending = %d after resolve, want 0", c.pendingCount())
	}
}
