package bench

import (
	"strings"
	"testing"

	"github.com/dcindex/dctree/internal/tpcd"
)

// tinyOptions keeps harness tests fast while exercising every driver with
// verification on.
func tinyOptions() Options {
	opt := DefaultOptions()
	opt.Sizes = []int{600, 1200}
	opt.QueriesPerPoint = 10
	opt.Verify = true
	opt.Scale = tpcd.Scale{
		Regions: 5, NationsPerRegion: 5, SegmentsPerNation: 5,
		Customers: 300, Suppliers: 50, Brands: 10, TypesPerBrand: 4,
		Parts: 400, Years: 3, DaysPerMonth: 10,
	}
	opt.DCConfig.BlockSize = 1024
	opt.DCConfig.DirCapacity = 8
	opt.DCConfig.LeafCapacity = 12
	opt.XConfig.DirCapacity = 8
	opt.XConfig.LeafCapacity = 12
	return opt
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Note:    "n",
		Columns: []string{"a", "bbbb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	for _, want := range []string{"== T ==", "a", "bbbb", "333"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "a,bbbb\n1,2\n") {
		t.Errorf("CSV = %q", b.String())
	}
}

func TestAllDriversRunAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep is slow")
	}
	opt := tinyOptions()
	tables, err := All(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Fatalf("All returned %d tables", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("table %q has no rows", tbl.Title)
		}
		if len(tbl.Columns) == 0 {
			t.Errorf("table %q has no columns", tbl.Title)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("table %q row arity %d != %d", tbl.Title, len(row), len(tbl.Columns))
			}
		}
	}
}

func TestBuildTimesInsertion(t *testing.T) {
	opt := tinyOptions()
	s, err := build(opt, 500, buildFlags{dc: true, x: true, scan: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.dc.Count() != 500 || s.xt.Count() != 500 || s.scan.Count() != 500 {
		t.Fatalf("counts: %d %d %d", s.dc.Count(), s.xt.Count(), s.scan.Count())
	}
	if s.dcInsert <= 0 || s.xInsert <= 0 {
		t.Fatalf("insert timers not recorded: %v %v", s.dcInsert, s.xInsert)
	}
	// The query timer runs and verification passes.
	dcSec, xSec, scanSec, err := s.queryTimes(opt, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if dcSec <= 0 || xSec <= 0 || scanSec <= 0 {
		t.Fatalf("query timers: %g %g %g", dcSec, xSec, scanSec)
	}
}

func TestFig13ReportsLevels(t *testing.T) {
	opt := tinyOptions()
	tbl, err := Fig13NodeSizes(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(opt.Sizes) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

// TestDriversRejectBadOptions: a query count below one (a negative one
// would panic in makeslice, zero would divide the per-query averages by
// zero) and a missing or empty data-set size come back as errors from
// every driver.
func TestDriversRejectBadOptions(t *testing.T) {
	noQueries := tinyOptions()
	noQueries.QueriesPerPoint = 0
	negQueries := tinyOptions()
	negQueries.QueriesPerPoint = -1
	noSizes := tinyOptions()
	noSizes.Sizes = nil
	badSize := tinyOptions()
	badSize.Sizes = []int{600, 0}
	drivers := map[string]func(Options) (*Table, error){
		"fig11a":   Fig11aInsert,
		"fig11b":   Fig11bInsertPerRecord,
		"fig12a":   func(o Options) (*Table, error) { return Fig12Query(o, 0.01, "a") },
		"fig12d":   Fig12dSeqScan,
		"fig13":    Fig13NodeSizes,
		"speedups": Speedups,
		"rollup":   Rollup,
		"bitmap":   Bitmap,
		"views":    Views,
		"ablation": Ablation,
		"all": func(o Options) (*Table, error) {
			_, err := All(o)
			return nil, err
		},
	}
	for _, bad := range []struct {
		name string
		opt  Options
	}{{"queries=0", noQueries}, {"queries=-1", negQueries}, {"no sizes", noSizes}, {"size 0", badSize}} {
		for name, run := range drivers {
			if _, err := run(bad.opt); err == nil {
				t.Errorf("%s accepted %s", name, bad.name)
			}
		}
	}
}
