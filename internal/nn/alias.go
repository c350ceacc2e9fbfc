package nn

// Float64 aliases for the dtype-generic training stack. The packages above
// nn (search spaces, apps, transfer, proxies) construct and transfer
// networks in float64 — the historical element type — and these aliases keep
// that code spelled exactly as before the stack went generic. An f32
// training run converts the finished f64 network once via ConvertNetwork
// (cast.go); nothing outside the conversion boundary ever names an
// *Of[float32] type directly. See DESIGN.md §14.
type (
	// Param is the float64 parameter tensor.
	Param = ParamOf[float64]
	// Layer is the float64 layer interface all search-space operators build.
	Layer = LayerOf[float64]
	// ParamGroup is the float64 transfer group.
	ParamGroup = ParamGroupOf[float64]
	// Network is the float64 network.
	Network = NetworkOf[float64]
	// Data is a float64 dataset split.
	Data = DataOf[float64]
	// Loss is the float64 loss interface.
	Loss = LossOf[float64]
	// Metric is the float64 metric interface.
	Metric = MetricOf[float64]
	// Adam is the float64 Adam optimizer.
	Adam = AdamOf[float64]

	// Dense is the float64 dense layer.
	Dense = DenseOf[float64]
	// Identity is the float64 identity layer.
	Identity = IdentityOf[float64]
	// Flatten is the float64 flatten layer.
	Flatten = FlattenOf[float64]
	// Concat is the float64 concat layer.
	Concat = ConcatOf[float64]
	// Activation is the float64 activation layer.
	Activation = ActivationOf[float64]
	// Dropout is the float64 dropout layer.
	Dropout = DropoutOf[float64]
	// Conv2D is the float64 2-D convolution.
	Conv2D = Conv2DOf[float64]
	// Conv1D is the float64 1-D convolution.
	Conv1D = Conv1DOf[float64]
	// BatchNorm is the float64 batch-normalization layer.
	BatchNorm = BatchNormOf[float64]
	// MaxPool2D is the float64 2-D max pool.
	MaxPool2D = MaxPool2DOf[float64]
	// MaxPool1D is the float64 1-D max pool.
	MaxPool1D = MaxPool1DOf[float64]
	// AvgPool2D is the float64 2-D average pool.
	AvgPool2D = AvgPool2DOf[float64]
	// GlobalAvgPool is the float64 global average pool.
	GlobalAvgPool = GlobalAvgPoolOf[float64]
	// Add is the float64 residual-add layer.
	Add = AddOf[float64]

	// SoftmaxCrossEntropy is the float64 fused softmax cross-entropy loss.
	SoftmaxCrossEntropy = SoftmaxCrossEntropyOf[float64]
	// MAE is the float64 mean-absolute-error loss.
	MAE = MAEOf[float64]
	// Accuracy is the float64 argmax-accuracy metric.
	Accuracy = AccuracyOf[float64]
	// R2 is the float64 coefficient-of-determination metric.
	R2 = R2Of[float64]
)
