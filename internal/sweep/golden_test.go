package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenMatrix is the matrix behind testdata/sweep.json and
// testdata/cells.csv: fixed, churn and fault presets under every policy
// family, two seeds, four simulated hours per cell. Regenerate the files
// only for an intended output change, with
//
//	go run ./cmd/mdcsim sweep -scenarios multi-dc,hetero-fleet,churn-poisson,churn-storm,fail-sparse,fail-az-outage,maint-rolling \
//	  -policies bf,bf-ob,bf-ml,bf-ml-delta,bf-ml-prune,hier-ml,hier-ob,static,firstfit,roundrobin \
//	  -seeds 1,7 -ticks 240 -out internal/sweep/testdata
var goldenMatrix = Matrix{
	Scenarios: []string{"multi-dc", "hetero-fleet", "churn-poisson", "churn-storm",
		"fail-sparse", "fail-az-outage", "maint-rolling"},
	Policies: []string{"bf", "bf-ob", "bf-ml", "bf-ml-delta", "bf-ml-prune",
		"hier-ml", "hier-ob", "static", "firstfit", "roundrobin"},
	Seeds: []uint64{1, 7},
	Ticks: 240,
}

// TestSweepGolden pins the sweep's machine-readable output byte for byte:
// a refactor of the cell runner, the scheduler or the column layout must
// leave sweep.json and cells.csv unchanged. The files are amd64 bytes;
// other architectures may fuse multiply-adds and round differently.
func TestSweepGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are recorded on amd64, not %s", runtime.GOARCH)
	}
	res, err := Run(goldenMatrix)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"sweep.json": js,
		"cells.csv":  []byte(res.CSV()),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/%s (%d vs %d bytes)%s", name, name, len(got), len(want), firstDiff(got, want))
		}
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("\nline %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return ""
}
