package barrier

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

// The assembled bytes of every SRISC source file in the repository: the
// examples, the misuse corpus and the assembler's all-forms test program.
// reduce.s holds the `barrier` pseudo-instruction, so it goes through
// Assemble with filter-d at 8 threads; every other file goes through
// asm.Assemble. A rewrite of the text front end must leave the golden
// byte-unchanged. After a deliberate change of what a source assembles to,
// delete the file: the test re-captures it and fails once to say so.

const assembledGoldenPath = "testdata/assembled_text.json"

// assembledSources are globs below the repository root; each file is keyed
// by its path there.
var assembledSources = []string{
	"examples/asm/*.s",
	"internal/vet/testdata/corpus/*.s",
	"internal/asm/testdata/*.s",
}

type assembledText struct {
	Entry    uint64          `json:"entry"`
	Segments []goldenSegment `json:"segments"`
}

func assembleSource(t *testing.T, path string) assembledText {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prog *asm.Program
	if filepath.Base(path) == "reduce.s" {
		var gen Generator
		if gen, err = New(KindFilterD, 8, NewAllocator(core.DefaultConfig(8).Mem)); err == nil {
			prog, err = Assemble(gen, string(src))
		}
	} else {
		prog, err = asm.Assemble(string(src), core.TextBase, core.DataBase)
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	a := assembledText{Entry: prog.Entry}
	for _, seg := range prog.Segments {
		a.Segments = append(a.Segments, goldenSegment{
			Addr: seg.Addr, Len: len(seg.Data), SHA256: fmt.Sprintf("%x", sha256.Sum256(seg.Data)),
		})
	}
	return a
}

func TestAssembledBytesGolden(t *testing.T) {
	got := map[string]assembledText{}
	for _, glob := range assembledSources {
		paths, err := filepath.Glob(filepath.Join("../..", glob))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no sources match %s (%v)", glob, err)
		}
		for _, path := range paths {
			got[filepath.ToSlash(path[len("../../"):])] = assembleSource(t, path)
		}
	}
	data, err := os.ReadFile(assembledGoldenPath)
	if os.IsNotExist(err) {
		data, err = json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(assembledGoldenPath, append(data, '\n'), 0o644)
		}
		t.Fatalf("%s was missing; captured it from the current assembler (write error: %v)", assembledGoldenPath, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]assembledText
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", assembledGoldenPath, err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: pinned, no longer assembled", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s differs from the golden:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: assembled, not pinned", name)
		}
	}
}
