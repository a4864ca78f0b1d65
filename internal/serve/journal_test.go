package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// journalLines parses every line of a journal file, failing the test on
// the first unparsable one — the "file is repaired" assertion.
func journalLines(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []map[string]any
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("journal line %d unparsable after repair: %v (%q)", line, err, sc.Text())
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeJournalTornFinalLine covers the crash-mid-append cases: the
// journal ends in a torn (half-written) line, or in a whole entry that
// lost its newline. Startup must tolerate both — log and truncate a torn
// tail, restore a lost newline, replay the valid prefix — re-queue the
// job caught mid-run, and run it to success; the repaired file must
// parse line by line and a reopened server must see the terminal record.
func TestServeJournalTornFinalLine(t *testing.T) {
	ref := wcRef(t, 21)
	intact := fmt.Sprintf(`{"op":"submit","job":{"id":0,"tenant":"t","name":%q,"spec":%s,"state":"queued"}}
{"op":"state","id":0,"state":"running"}`, ref.Name, ref.Spec)
	for name, crash := range map[string]string{
		"torn":         intact + "\n" + `{"op":"state","id":0,"sta`, // torn mid-append, no newline
		"lost-newline": intact,                                      // whole entry, newline lost
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, []byte(crash), 0o644); err != nil {
				t.Fatal(err)
			}

			srv, err := serve.New(serve.Config{Fleet: slowHeartbeats, JournalPath: path})
			if err != nil {
				t.Fatalf("New on a torn journal: %v", err)
			}

			// The torn tail is gone: every surviving line parses.
			lines := journalLines(t, path)
			if len(lines) < 2 {
				t.Fatalf("repaired journal has %d lines, want the 2 intact ones (plus converge entries)", len(lines))
			}

			// The mid-run job was re-queued, not failed.
			rec, err := srv.Get(0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.State != serve.StateQueued && rec.State != serve.StateRunning {
				t.Fatalf("replayed job 0 is %s, want queued/running (re-queued)", rec.State)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			serveWorkers(t, ctx, srv, 1, 2)
			if rec, err = srv.Wait(ctx, 0); err != nil || rec.State != serve.StateSucceeded {
				t.Fatalf("job 0 after torn-journal restart: %v state %s, want succeeded", err, rec.State)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: the terminal record replays cleanly from the
			// repaired file.
			srv2, err := serve.New(serve.Config{Fleet: slowHeartbeats, JournalPath: path})
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			if rec, err = srv2.Get(0); err != nil || rec.State != serve.StateSucceeded {
				t.Fatalf("reopened job 0: %v state %s, want succeeded", err, rec.State)
			}
		})
	}
}

// TestServeJournalDuplicateTerminal replays a journal holding two
// terminal transitions for one job (and a stale non-terminal one after
// them). Before the terminal guard this double-closed the job's done
// channel and panicked; now the first terminal state wins.
func TestServeJournalDuplicateTerminal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ref := wcRef(t, 22)

	journal := fmt.Sprintf(`{"op":"submit","job":{"id":0,"tenant":"t","name":%q,"spec":%s,"state":"queued"}}
{"op":"state","id":0,"state":"succeeded"}
{"op":"state","id":0,"state":"canceled"}
{"op":"state","id":0,"state":"running"}
`, ref.Name, ref.Spec)
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{Fleet: slowHeartbeats, JournalPath: path})
	if err != nil {
		t.Fatalf("New on duplicate terminals: %v", err)
	}
	defer srv.Close()
	rec, err := srv.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != serve.StateSucceeded {
		t.Fatalf("job 0 is %s, want succeeded (first terminal wins)", rec.State)
	}
	// The job is terminal: Wait returns immediately instead of hanging
	// on a re-queued ghost.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rec, err = srv.Wait(ctx, 0); err != nil || rec.State != serve.StateSucceeded {
		t.Fatalf("wait on replayed terminal job: %v state %s", err, rec.State)
	}
}

// TestServeJournalMidFileCorruption distinguishes real corruption from
// a torn tail: an unparsable line with valid entries after it must
// fail startup with the line number, not be silently dropped.
func TestServeJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ref := wcRef(t, 23)

	journal := fmt.Sprintf(`{"op":"submit","job":{"id":0,"tenant":"t","name":%q,"spec":%s,"state":"queued"}}
{"op":"state","id":0,"sta
{"op":"state","id":0,"state":"succeeded"}
`, ref.Name, ref.Spec)
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := serve.New(serve.Config{Fleet: slowHeartbeats, JournalPath: path})
	if err == nil {
		t.Fatal("New accepted mid-file corruption")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name the corrupt line", err)
	}
}
