package cli

import (
	"os"
	"path/filepath"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/sys"
)

// truncateFile cuts a file to half its size, corrupting it.
func truncateFile(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, info.Size()/2)
}

func TestLoadOrBuildTableBuildsAndCaches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.acxt")
	// First call: builds coarse and saves.
	table, err := LoadOrBuildTable(path, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if table.BuildTime() <= 0 {
		t.Error("fresh build should record build time")
	}
	// Second call: loads from disk (no build time).
	loaded, err := LoadOrBuildTable(path, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.BuildTime() != 0 {
		t.Error("expected a loaded table (zero build time)")
	}
	if loaded.NumEntries() != table.NumEntries() {
		t.Error("loaded table differs from built table")
	}
}

func TestLoadOrBuildTableEmptyPath(t *testing.T) {
	table, err := LoadOrBuildTable("", true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil {
		t.Fatal("nil table")
	}
}

// TestSystemFactoryNames: a table from LoadOrBuildTable plugs into
// sys.PairFactory the way the command-line tools resolve -system, and every
// backend they name yields non-nil (ownship, intruder) pairs.
func TestSystemFactoryNames(t *testing.T) {
	table, err := LoadOrBuildTable("", true, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"acasx", "svo", "none"} {
		tbl := table
		if name != "acasx" {
			tbl = nil
		}
		factory, err := sys.PairFactory(sys.Context{Table: tbl}, sys.Spec{Name: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		own, intr := factory()
		if own == nil || intr == nil {
			t.Fatalf("%s: nil systems", name)
		}
	}
}

// TestSystemFactoryErrors: the tools' -system resolution rejects acasx
// without a table and an unknown name.
func TestSystemFactoryErrors(t *testing.T) {
	if _, err := sys.PairFactory(sys.Context{}, sys.Spec{Name: "acasx"}); err == nil {
		t.Error("acasx without table accepted")
	}
	if _, err := sys.PairFactory(sys.Context{}, sys.Spec{Name: "bogus"}); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestLoadOrBuildTableRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.acxt")
	if err := writeGarbage(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrBuildTable(path, true, 2); err == nil {
		t.Error("corrupt table file accepted")
	}
}

func writeGarbage(path string) error {
	table, err := acasx.BuildTable(func() acasx.Config {
		c := acasx.CoarseConfig()
		c.Grid.Horizon = 3
		return c
	}())
	if err != nil {
		return err
	}
	// Save a valid table then truncate it.
	if err := table.Save(path); err != nil {
		return err
	}
	return truncateFile(path)
}
