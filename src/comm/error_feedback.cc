#include "comm/error_feedback.h"

#include "common/logging.h"
#include "obs/engine_profiler.h"

namespace mllibstar {

namespace {

/// Byte accounting for one transmit into the run's tally: the raw
/// payload of a `dim`-vector vs what went on the wire.
void TallyTransmit(size_t dim, uint64_t encoded_bytes, CodecTally* tally) {
  if (tally == nullptr) return;
  tally->raw += static_cast<uint64_t>(dim) * sizeof(double);
  tally->encoded += encoded_bytes;
}

}  // namespace

ErrorFeedback::ErrorFeedback(size_t num_streams, size_t dim)
    : residuals_(num_streams, DenseVector(dim)) {}

const DenseVector& ErrorFeedback::residual(size_t stream) const {
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  return residuals_[stream];
}

void ErrorFeedback::Compensate(size_t stream, DenseVector* v) const {
  if (!enabled()) return;
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  v->AddScaled(residuals_[stream], 1.0);
}

void ErrorFeedback::Absorb(size_t stream, const DenseVector& compensated,
                           const DenseVector& decoded) {
  if (!enabled()) return;
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  DenseVector& r = residuals_[stream];
  r = compensated;
  r.AddScaled(decoded, -1.0);
}

void ErrorFeedback::RestoreResidual(size_t stream,
                                    const DenseVector& residual) {
  if (!enabled()) return;
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  MLLIBSTAR_CHECK_EQ(residual.dim(), residuals_[stream].dim());
  residuals_[stream] = residual;
}

ErrorFeedback MakeErrorFeedback(const GradientCodec& codec,
                                const CodecConfig& config,
                                size_t num_streams, size_t dim) {
  if (codec.lossless() || !config.error_feedback) return ErrorFeedback();
  return ErrorFeedback(num_streams, dim);
}

uint64_t CodecTransmit(const GradientCodec& codec, ErrorFeedback* ef,
                       size_t stream, DenseVector* v, CodecTally* tally) {
  EngineProfiler::Scope codec_prof(Subsystem::kCodec);
  EngineProfiler::Get().AddEvents(Subsystem::kCodec, 1);
  // Lossless fast path: the wire is transparent, so skip the
  // encode/decode (the roundtrip is bit-exact by contract, which
  // comm_test pins down).
  if (codec.lossless()) {
    const uint64_t encoded = codec.EncodedBytes(v->dim());
    TallyTransmit(v->dim(), encoded, tally);
    return encoded;
  }
  if (ef != nullptr) ef->Compensate(stream, v);
  const EncodedChunk chunk = codec.Encode(*v);
  TallyTransmit(v->dim(), chunk.bytes, tally);
  DenseVector decoded = codec.Decode(chunk);
  if (ef != nullptr) ef->Absorb(stream, *v, decoded);
  *v = std::move(decoded);
  return chunk.bytes;
}

const DenseVector& CodecBroadcast(const GradientCodec& codec,
                                  const DenseVector& v,
                                  DenseVector* received, CodecTally* tally) {
  if (codec.lossless()) {
    AccountBroadcast(codec, v.dim(), tally);
    return v;
  }
  *received = v;
  CodecTransmit(codec, nullptr, 0, received, tally);
  return *received;
}

void AccountBroadcast(const GradientCodec& codec, size_t dim,
                      CodecTally* tally) {
  EngineProfiler::Scope codec_prof(Subsystem::kCodec);
  EngineProfiler::Get().AddEvents(Subsystem::kCodec, 1);
  TallyTransmit(dim, codec.EncodedBytes(dim), tally);
}

}  // namespace mllibstar
