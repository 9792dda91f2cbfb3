package lockorder_test

import (
	"testing"

	"aarc/internal/analysis/analysistest"
	"aarc/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "../testdata", lockorder.Analyzer, "lockorder/dep", "lockorder/svc", "lockscope/svc", "lockscope/ext")
}
