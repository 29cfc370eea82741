package replica

import (
	"testing"

	"skewsim/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
