package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestReadPeersFileSkipsWholeCommentLines checks that a comment line is
// dropped whole, commas and all: nothing after its '#' may join the ring.
func TestReadPeersFileSkipsWholeCommentLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers")
	body := "# rack a, rack b\n10.0.0.1:7071\n\n  10.0.0.2:7071  \n#10.0.0.3:7071\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readPeersFile(path)
	if err != nil {
		t.Fatalf("readPeersFile: %v", err)
	}
	if want := []string{"10.0.0.1:7071", "10.0.0.2:7071"}; !slices.Equal(got, want) {
		t.Fatalf("readPeersFile = %q, want %q", got, want)
	}
}

func TestSplitPeers(t *testing.T) {
	if got, want := splitPeers(" a:1, ,b:2,"), []string{"a:1", "b:2"}; !slices.Equal(got, want) {
		t.Fatalf("splitPeers = %q, want %q", got, want)
	}
}
