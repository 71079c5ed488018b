package cpu

// Exports for the external test package (storelog_test.go), which imports
// internal/chaos and therefore cannot be part of package cpu.
var (
	SelfModifyingProgram   = selfModifyingProgram
	StoreIntoPairProgram   = storeIntoPairProgram
	ChainSelfModifyProgram = chainSelfModifyProgram
)
