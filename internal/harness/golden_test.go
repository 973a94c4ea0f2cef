package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// experimentsGoldenPath pins the rendered output of the experiments that
// run in well under a second at a 4-core machine. Table 1 and ocean take
// several seconds even there and are compared through cmd/bench instead.
const experimentsGoldenPath = "testdata/experiments_golden.txt"

// goldenExperiment renders one experiment's table, or its error, into w.
func goldenExperiment[T any](opt Options, exp func(Options) (T, error), write func(io.Writer, T)) func(io.Writer) error {
	return func(w io.Writer) error {
		v, err := exp(opt)
		if err != nil {
			return err
		}
		write(w, v)
		return nil
	}
}

// TestExperimentsGolden renders fig4, fig5, fig6, fig7, fig8, fig10,
// extras and scale at a tiny size and compares the text byte for byte with
// the checked-in golden: any change to how an experiment sweeps, measures
// or renders its cells shows here. Delete the golden to re-capture it after
// a deliberate timing-model change.
func TestExperimentsGolden(t *testing.T) {
	opt := QuickOptions()
	opt.Cores = 4
	opt.Fig4Cores = []int{4}
	opt.Lengths = []int{16}
	opt.ScaleCores = []int{4}
	exps := []struct {
		name   string
		render func(io.Writer) error
	}{
		{"fig4", goldenExperiment(opt, Fig4, WriteFig4)},
		{"fig5", goldenExperiment(opt, Fig5, func(w io.Writer, r SpeedupRow) { WriteSpeedupRow(w, "Figure 5", r) })},
		{"fig6", goldenExperiment(opt, Fig6, func(w io.Writer, r SpeedupRow) { WriteSpeedupRow(w, "Figure 6", r) })},
		{"fig7", goldenExperiment(opt, Fig7, WriteTimeSeries)},
		{"fig8", goldenExperiment(opt, Fig8, WriteTimeSeries)},
		{"fig10", goldenExperiment(opt, Fig10, WriteTimeSeries)},
		{"extras", goldenExperiment(opt, Extras, WriteExtras)},
		{"scale", goldenExperiment(opt, Scale, WriteScale)},
	}
	var got bytes.Buffer
	for _, e := range exps {
		got.WriteString("== " + e.name + "\n")
		if err := e.render(&got); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	want, err := os.ReadFile(experimentsGoldenPath)
	if os.IsNotExist(err) {
		err = os.MkdirAll(filepath.Dir(experimentsGoldenPath), 0o755)
		if err == nil {
			err = os.WriteFile(experimentsGoldenPath, got.Bytes(), 0o644)
		}
		t.Fatalf("%s was missing; captured it from the current experiments (write error: %v)", experimentsGoldenPath, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiments differ from %s:\n got:\n%s\nwant:\n%s", experimentsGoldenPath, got.Bytes(), want)
	}
}
