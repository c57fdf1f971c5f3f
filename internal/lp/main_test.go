package lp

import (
	"os"
	"testing"
)

// TestMain turns on the cross-check when LP_CROSSCHECK is set.
func TestMain(m *testing.M) {
	CrosscheckFromEnv()
	os.Exit(m.Run())
}
