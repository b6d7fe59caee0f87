package distmat

import (
	"repro/internal/spmat"
)

// DCSCBlock returns this rank's block compressed to DCSC. On large process
// grids the blocks are hypersparse and the CSC column-pointer array
// dominates the footprint; DCSC removes it (§IV-A discusses the local
// format choice; DCSC is what CombBLAS itself uses in this regime).
// The DCSC kernel itself lives next to the CSC one in distmat.go
// (Mat.LocalSpMSpVDCSC).
func (m *Mat) DCSCBlock() *spmat.DCSC {
	return spmat.DCSCFromCSC(m.Block)
}
