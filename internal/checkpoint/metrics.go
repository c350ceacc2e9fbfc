package checkpoint

import "swtnas/internal/obs"

// Checkpoint telemetry (internal/obs, disabled by default). Codec metrics
// count every encode/decode in the process — store saves/loads, inline RPC
// checkpoints, experiment harness traffic — while the store metrics track
// the persistence layer itself: end-to-end save/load latency (encode plus
// memory or file-system I/O) and the hit/miss split on loads, the paper's
// Fig 10 transfer-overhead signal.
var (
	mEncodeSeconds = obs.GetHistogram("checkpoint.encode.seconds", obs.DurationBuckets)
	mDecodeSeconds = obs.GetHistogram("checkpoint.decode.seconds", obs.DurationBuckets)
	mEncodeBytes   = obs.GetCounter("checkpoint.encode.bytes")
	mDecodeBytes   = obs.GetCounter("checkpoint.decode.bytes")
	mEncodeCalls   = obs.GetCounter("checkpoint.encode.calls")
	mDecodeCalls   = obs.GetCounter("checkpoint.decode.calls")

	mStoreSaveSeconds = obs.GetHistogram("checkpoint.store.save.seconds", obs.DurationBuckets)
	mStoreLoadSeconds = obs.GetHistogram("checkpoint.store.load.seconds", obs.DurationBuckets)
	mStoreSaveBytes   = obs.GetCounter("checkpoint.store.save.bytes")
	// mStoreSaveSize records the per-save logical checkpoint size as a
	// distribution (the counter above only aggregates); the calibrated
	// simulator (internal/sim) fits its checkpoint-bytes sampler from it.
	mStoreSaveSize = obs.GetHistogram("checkpoint.store.save.size", obs.SizeBuckets)
	mStoreHits     = obs.GetCounter("checkpoint.store.load.hits")
	mStoreMisses   = obs.GetCounter("checkpoint.store.load.misses")
)

// Content-addressed store telemetry. RawBytes is what the saved SWTC streams
// measure; WrittenBytes is what reached the backend for them — their ratio,
// with the journal's bytes, is the checkpoint-I/O reduction the dedup-smoke
// CI job asserts end to end. blobs.stored counts object writes: one per save
// unless the disk backend already held the object.
var (
	mCASBlobsStored  = obs.GetCounter("checkpoint.cas.blobs.stored")
	mCASRawBytes     = obs.GetCounter("checkpoint.cas.bytes.raw")
	mCASWrittenBytes = obs.GetCounter("checkpoint.cas.bytes.written")
	mCASBlobsLive    = obs.GetGauge("checkpoint.cas.blobs.live")
)
