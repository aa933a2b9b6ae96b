package analysis

import "testing"

func TestShardlockAnalyzer(t *testing.T) {
	runTestdata(t, Shardlock, "shardlock", ModulePath+"/internal/proxy")
}

func TestShardlockScopedToProxy(t *testing.T) {
	// The identical fixture outside internal/proxy must stay silent.
	loader := NewLoader(stdlibExports(t, []string{"io", "net/http", "sync", "time"}))
	pkg, err := loader.Check(ModulePath+"/internal/core", "testdata/shardlock", []string{"shardlock.go"})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analyzePackage(pkg, loader.Fset, Shardlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding outside internal/proxy: %s", f)
	}
}
