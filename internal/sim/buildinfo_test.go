package sim

import "testing"

// TestBuildInfoContract pins the keys operators script against when
// correlating a live campaign (/vars/build) with its warmup checkpoints:
// the model version and the checkpoint container format that stamp every
// checkpoint must always be present and must match the package constants.
func TestBuildInfoContract(t *testing.T) {
	info := BuildInfo()
	if got := info["model_version"]; got != ModelVersion {
		t.Errorf("model_version = %v, want %v", got, ModelVersion)
	}
	if got := info["ckpt_format"]; got != int(ckptFormat) {
		t.Errorf("ckpt_format = %v, want %v", got, int(ckptFormat))
	}
	// Under `go test` the toolchain stamps build info, so the module block
	// should be there too.
	if got := info["module"]; got != "pradram" {
		t.Errorf("module = %v, want pradram", got)
	}
	if _, ok := info["go_version"]; !ok {
		t.Error("go_version missing")
	}
}
