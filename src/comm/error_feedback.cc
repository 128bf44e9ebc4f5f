#include "comm/error_feedback.h"

#include "common/logging.h"
#include "obs/engine_profiler.h"
#include "obs/telemetry.h"

namespace mllibstar {

namespace {

/// Byte accounting for one transmit: raw payload vs what went on the
/// wire, per {codec, stream}. Called from worker-pool threads, so it
/// only touches atomic counters after the registry lookup.
void RecordTransmit(const GradientCodec& codec, const ErrorFeedback* ef,
                    size_t stream, size_t dim, uint64_t encoded_bytes) {
  Telemetry& obs = Telemetry::Get();
  if (!obs.enabled()) return;
  const std::string stream_label =
      ef != nullptr && ef->enabled() ? std::to_string(stream) : "broadcast";
  const MetricLabels labels = {{"codec", codec.name()},
                               {"stream", stream_label}};
  obs.metrics()
      .Counter("comm.raw_bytes", labels)
      .Add(static_cast<uint64_t>(dim) * sizeof(double));
  obs.metrics().Counter("comm.encoded_bytes", labels).Add(encoded_bytes);
  obs.metrics().Counter("comm.transmits", labels).Add();
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

void CodecTransmit(const GradientCodec& codec, ErrorFeedback* ef,
                   size_t stream, DenseVector* v, uint64_t* wire_bytes) {
  EngineProfiler::Scope codec_prof(Subsystem::kCodec);
  EngineProfiler::Get().AddEvents(Subsystem::kCodec, 1);
  // Lossless fast path: the wire is transparent, so skip the
  // encode/decode (the roundtrip is bit-exact by contract, which
  // comm_test pins down).
  if (codec.lossless()) {
    const uint64_t encoded = codec.EncodedBytes(v->dim());
    if (wire_bytes != nullptr) *wire_bytes += encoded;
    RecordTransmit(codec, ef, stream, v->dim(), encoded);
    return;
  }
  if (ef != nullptr) ef->Compensate(stream, v);
  const EncodedChunk chunk = codec.Encode(*v);
  if (wire_bytes != nullptr) *wire_bytes += chunk.bytes;
  RecordTransmit(codec, ef, stream, v->dim(), chunk.bytes);
  DenseVector decoded = codec.Decode(chunk);
  if (ef != nullptr) ef->Absorb(stream, *v, decoded);
  *v = std::move(decoded);
}

const DenseVector& CodecBroadcast(const GradientCodec& codec,
                                  const DenseVector& v,
                                  DenseVector* received) {
  if (codec.lossless()) {
    AccountBroadcast(codec, v.dim());
    return v;
  }
  *received = v;
  CodecTransmit(codec, nullptr, 0, received);
  return *received;
}

void AccountBroadcast(const GradientCodec& codec, size_t dim) {
  EngineProfiler::Scope codec_prof(Subsystem::kCodec);
  EngineProfiler::Get().AddEvents(Subsystem::kCodec, 1);
  RecordTransmit(codec, nullptr, 0, dim, codec.EncodedBytes(dim));
}

}  // namespace mllibstar
