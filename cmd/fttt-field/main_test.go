package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadHeaderReportsFile pins the -load header: it describes the
// loaded division (nodes solved from its pair count, its cell size),
// not the -n/-deploy flags, and omits C, which a spill file does not
// store. Renderings that draw the flags' sensors are refused when the
// flags disagree with the file.
func TestLoadHeaderReportsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "six.div")
	var out bytes.Buffer
	if err := run(&out, 6, "grid", 1, 6, 4, 100, 5, 0, 1, false, 0, path, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "nodes=6 pairs=15 C=") {
		t.Fatalf("divide header: %q", out.String())
	}

	out.Reset()
	if err := run(&out, 4, "grid", 1, 6, 4, 100, 2, 0, 1, false, 0, "", path, ""); err != nil {
		t.Fatal(err)
	}
	header := strings.Split(out.String(), "\n")[1]
	if !strings.HasPrefix(header, "nodes=6 pairs=15 cell=5.0m ") || strings.Contains(header, "C=") {
		t.Errorf("-load header %q, want the file's nodes=6 pairs=15 cell=5.0m and no C", header)
	}

	svgPath := filepath.Join(t.TempDir(), "four.svg")
	for _, tc := range []struct {
		name    string
		drawMap bool
		svg     string
	}{{"map", true, ""}, {"svg", false, svgPath}} {
		if err := run(&out, 4, "grid", 1, 6, 4, 100, 2, 0, 1, tc.drawMap, 0, "", path, tc.svg); err == nil {
			t.Errorf("-%s with -n 4 over a 6-node file: no error", tc.name)
		}
		if err := run(&out, 6, "grid", 1, 6, 4, 100, 2, 0, 1, tc.drawMap, 0, "", path, tc.svg); err != nil {
			t.Errorf("-%s with matching -n 6: %v", tc.name, err)
		}
	}
}
