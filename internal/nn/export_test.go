package nn

import "swtnas/internal/tensor"

// NewTrainStep hands the external tests (package nn_test, which builds real
// application candidates and so cannot live inside the package) the training
// step of one Fit call over net.
func NewTrainStep[T tensor.Float](net *NetworkOf[T], loss LossOf[T], opt OptimizerOf[T]) func(train *DataOf[T], idx []int) (float64, error) {
	return (&stepperOf[T]{net: net, loss: loss, opt: opt}).step
}
