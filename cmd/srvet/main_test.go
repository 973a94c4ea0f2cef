package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: run with
// SRVET_MAIN=1 it is srvet itself, so the tests see real exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("SRVET_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// srvet runs the command with args and returns its stdout and exit code.
func srvet(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SRVET_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	case err != nil:
		t.Fatalf("srvet %v: %v", args, err)
	}
	return stdout.String(), 0
}

// TestFileModeFlagsCorpus: file mode reports every misuse corpus file's
// wanted diagnostic at its label, with the thread count its header names,
// and exits 1.
func TestFileModeFlagsCorpus(t *testing.T) {
	paths, err := filepath.Glob("../../internal/vet/testdata/corpus/*.s")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want, at string
		var threads int
		var dynRace bool
		if _, err := fmt.Sscanf(string(src), "# corpus: want=%s at=%s threads=%d dynrace=%t", &want, &at, &threads, &dynRace); err != nil {
			t.Fatalf("%s: header: %v", path, err)
		}
		out, code := srvet(t, "-threads", fmt.Sprint(threads), path)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", path, code)
		}
		found := false
		for _, line := range strings.Split(out, "\n") {
			found = found || strings.HasPrefix(line, at) && strings.Contains(line, "): "+want+": ")
		}
		if !found {
			t.Errorf("%s: no %s diagnostic at %s in:\n%s", path, want, at, out)
		}
	}
}

// TestFileModeBarrierExpansion: with -barrier, file mode expands the
// `barrier` pseudo-instruction as cmpsim does, and the example vets clean.
func TestFileModeBarrierExpansion(t *testing.T) {
	const path = "../../examples/asm/reduce.s"
	out, code := srvet(t, "-barrier", "filter-d", "-threads", "8", path)
	if code != 0 || out != "ok   "+path+"\n" {
		t.Fatalf("exit %d, output %q; want 0 and the ok line", code, out)
	}
}

// TestJSONShape pins the -json form: an array of per-program objects with
// the program's name, its verdict and its phase certificates, and each
// diagnostic as {code, addr (hex string), pos, phase, msg}.
func TestJSONShape(t *testing.T) {
	keys := func(m map[string]json.RawMessage) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	decode := func(out string) []map[string]json.RawMessage {
		var reports []map[string]json.RawMessage
		if err := json.Unmarshal([]byte(out), &reports); err != nil {
			t.Fatalf("-json output does not decode: %v\n%s", err, out)
		}
		return reports
	}

	out, code := srvet(t, "-json", "-kernel", "livermore2", "-barrier", "filter-d", "-threads", "8")
	reports := decode(out)
	if code != 0 || len(reports) != 1 {
		t.Fatalf("exit %d, %d reports; want 0 and one", code, len(reports))
	}
	r := reports[0]
	if got := keys(r); got != "ok,phases,program" {
		t.Errorf("report keys %s, want ok,phases,program", got)
	}
	if string(r["program"]) != `"livermore2/filter-d/t8"` || string(r["ok"]) != "true" {
		t.Errorf("program %s ok %s", r["program"], r["ok"])
	}
	var phases []map[string]json.RawMessage
	if err := json.Unmarshal(r["phases"], &phases); err != nil || len(phases) == 0 {
		t.Fatalf("phases %s: %v", r["phases"], err)
	}
	for i, p := range phases {
		want := "certified,id,insts,loads,stores"
		if string(p["certified"]) == "false" {
			want = "certified,id,insts,loads,reason,stores"
		}
		if got := keys(p); got != want {
			t.Errorf("phase %d keys %s, want %s", i, got, want)
		}
		if string(p["id"]) != fmt.Sprint(i) {
			t.Errorf("phase %d has id %s", i, p["id"])
		}
	}

	out, code = srvet(t, "-json", "-threads", "4", "../../internal/vet/testdata/corpus/neighbour-read-race.s")
	reports = decode(out)
	if code != 1 || len(reports) != 1 {
		t.Fatalf("corpus file: exit %d, %d reports; want 1 and one", code, len(reports))
	}
	var diags []map[string]json.RawMessage
	if err := json.Unmarshal(reports[0]["diagnostics"], &diags); err != nil || len(diags) == 0 {
		t.Fatalf("diagnostics %s: %v", reports[0]["diagnostics"], err)
	}
	hexAddr := regexp.MustCompile(`^"0x[0-9a-f]+"$`)
	for _, d := range diags {
		if got := keys(d); got != "addr,code,msg,phase,pos" {
			t.Errorf("diagnostic keys %s, want addr,code,msg,phase,pos", got)
		}
		if !hexAddr.Match(d["addr"]) {
			t.Errorf("diagnostic addr %s is not a hex string", d["addr"])
		}
	}
}
