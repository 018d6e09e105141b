package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runVet invokes the driver exactly as main does, capturing both streams.
func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownAnalyzerExits2(t *testing.T) {
	code, _, stderr := runVet(t, "-only", "nosuch", "./testdata/src/jsonfix")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown analyzer "nosuch"`) {
		t.Fatalf("stderr = %q, want unknown-analyzer message", stderr)
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	code, stdout, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{
		"nofs", "syncdir", "keyhygiene", "lockio", "errclass", "authread",
		"lockorder", "atomics", "goroleak", "noncebound", "testonly",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %q", name)
		}
	}
	if n := len(strings.Split(strings.TrimSpace(stdout), "\n")); n != 11 {
		t.Errorf("-list printed %d lines, want 11", n)
	}
}

// TestJSONGolden pins the machine-readable schema the CI annotation step
// consumes: version, package count, analyzer list, and module-relative
// finding paths, byte-for-byte.
func TestJSONGolden(t *testing.T) {
	code, stdout, stderr := runVet(t, "-q", "-json", "./testdata/src/jsonfix")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (fixture has findings); stderr: %s", code, stderr)
	}
	golden := filepath.Join("testdata", "jsonfix.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if stdout != string(want) {
		t.Errorf("-json output differs from %s:\n got: %s\nwant: %s", golden, stdout, want)
	}
	// The golden file itself must stay valid JSON with the documented shape.
	var rep struct {
		Version  int `json:"version"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	if rep.Version != 1 || len(rep.Findings) == 0 {
		t.Fatalf("golden shape unexpected: %+v", rep)
	}
	for _, f := range rep.Findings {
		if filepath.IsAbs(f.File) || !strings.HasPrefix(f.File, "cmd/shield-vet/testdata/") {
			t.Errorf("finding path %q is not module-relative", f.File)
		}
	}
}

// TestJSONCleanEmitsEmptyFindings: a clean run must produce findings: [],
// never null — the CI jq step iterates it unconditionally.
func TestJSONCleanEmitsEmptyFindings(t *testing.T) {
	code, stdout, stderr := runVet(t, "-q", "-json", "../../internal/vet/vetutil")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, `"findings": []`) {
		t.Errorf("clean -json output must contain \"findings\": [], got: %s", stdout)
	}
}

func TestTypeErrorExits2(t *testing.T) {
	code, _, stderr := runVet(t, "-q", "./testdata/src/typeerr")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "type error") || !strings.Contains(stderr, "not analyzed") {
		t.Fatalf("stderr = %q, want type-error refusal", stderr)
	}
}

// TestParallelMatchesSerial: the worker pool must not change the findings
// or their order — stdout is byte-identical at any parallelism.
func TestParallelMatchesSerial(t *testing.T) {
	dirs := []string{"./testdata/src/jsonfix", "../../internal/vet/vetutil", "../../internal/resp"}
	serialCode, serialOut, _ := runVet(t, append([]string{"-q", "-parallel", "1"}, dirs...)...)
	for _, workers := range []string{"2", "8"} {
		code, out, _ := runVet(t, append([]string{"-q", "-parallel", workers}, dirs...)...)
		if code != serialCode {
			t.Errorf("-parallel %s exit = %d, serial = %d", workers, code, serialCode)
		}
		if out != serialOut {
			t.Errorf("-parallel %s stdout differs from serial:\n got: %s\nwant: %s", workers, out, serialOut)
		}
	}
	if serialCode != 1 {
		t.Errorf("fixture set should have findings; exit = %d", serialCode)
	}
}

// TestSuppressionsAuditListsDirectives: the audit lists directives with
// reasons and exits 0 when none are stale.
func TestSuppressionsAuditClean(t *testing.T) {
	code, stdout, stderr := runVet(t, "-q", "-suppressions", "../../internal/vet/load")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s\n%s", code, stderr, stdout)
	}
	if !strings.Contains(stdout, "//shield:nofs") || strings.Contains(stdout, "STALE") {
		t.Errorf("audit output unexpected:\n%s", stdout)
	}
}
