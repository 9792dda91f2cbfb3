// Fixture dependency for lockscope: a fake of the project's workflow
// evaluation surface.
package workflow

// Runner evaluates a workflow under a resource assignment.
type Runner struct{}

// Evaluate runs one evaluation.
func (*Runner) Evaluate(args []float64) float64 { return 0 }

// EvaluateInto runs one evaluation into a caller-owned result.
func (*Runner) EvaluateInto(args []float64, res *float64) {}

// EvaluateScale runs one evaluation at an input scale.
func (*Runner) EvaluateScale(args []float64, scale float64) float64 { return 0 }

// MeanEvaluate averages repeated evaluations.
func (*Runner) MeanEvaluate(args []float64) float64 { return 0 }
