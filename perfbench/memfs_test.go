package main

import (
	"errors"
	"os"
	"syscall"
	"testing"
)

func TestMemFSSemantics(t *testing.T) {
	m := newMemFS()
	if err := m.WriteFile("ck/offsets/1.json", []byte("x"), 0o644); !os.IsNotExist(err) {
		t.Fatalf("write without parent: %v, want not-exist", err)
	}
	if err := m.MkdirAll("ck/offsets", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b", "a", "c"} {
		if err := m.WriteFile("ck/offsets/"+name+".tmp", []byte(name+name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Rename("ck/offsets/a.tmp", "ck/offsets/b.tmp"); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadFile("ck/offsets/b.tmp"); err != nil || string(got) != "aa" {
		t.Fatalf("after rename over: %q, %v", got, err)
	}
	if m.held() != 4 {
		t.Errorf("held %d bytes, want 4", m.held())
	}
	ents, err := m.ReadDir("ck/offsets")
	if err != nil || len(ents) != 2 || ents[0].Name() != "b.tmp" || ents[1].Name() != "c.tmp" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	root, err := m.ReadDir("ck")
	if err != nil || len(root) != 1 || !root[0].IsDir() {
		t.Fatalf("ReadDir(ck) = %v, %v", root, err)
	}
	if got, err := m.ReadFileRange("ck/offsets/c.tmp", 1, 1); err != nil || string(got) != "c" {
		t.Errorf("ReadFileRange = %q, %v", got, err)
	}
	if _, err := m.ReadFileRange("ck/offsets/c.tmp", 1, 5); err == nil {
		t.Error("range past the end must fail")
	}
	if err := m.Remove("ck/offsets"); !errors.Is(err, syscall.ENOTEMPTY) {
		t.Errorf("removing a non-empty dir: %v", err)
	}
	if _, err := m.Stat("ck/missing"); !os.IsNotExist(err) {
		t.Errorf("stat missing: %v", err)
	}
	for _, f := range []string{"ck/offsets/b.tmp", "ck/offsets/c.tmp", "ck/offsets"} {
		if err := m.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if m.held() != 0 {
		t.Errorf("held %d bytes after removing everything", m.held())
	}
	if info, err := m.Stat("ck"); err != nil || !info.IsDir() {
		t.Errorf("stat dir: %v, %v", info, err)
	}
}
