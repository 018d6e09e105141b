package testonly_test

import (
	"testing"

	"shield/internal/vet/analyzers/testonly"
	"shield/internal/vet/vettest"
)

func TestTestOnly(t *testing.T) {
	vettest.Run(t, "testdata", testonly.Analyzer, "a", "b", "vfstest")
}
