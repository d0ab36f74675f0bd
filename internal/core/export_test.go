package core

// Hooks for the external core_test package.
var (
	PmtnBreakpoints  = (*Prep).pmtnBreakpoints
	SplitBreakpoints = (*Prep).splitBreakpoints
)
