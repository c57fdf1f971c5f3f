package alloc

import (
	"os"
	"testing"

	"bate/internal/lp"
)

// TestMain turns on the LP cross-check when LP_CROSSCHECK is set.
func TestMain(m *testing.M) {
	lp.CrosscheckFromEnv()
	os.Exit(m.Run())
}
