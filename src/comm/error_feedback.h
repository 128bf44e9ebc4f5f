#ifndef MLLIBSTAR_COMM_ERROR_FEEDBACK_H_
#define MLLIBSTAR_COMM_ERROR_FEEDBACK_H_

#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "core/vector.h"
#include "obs/round_profile.h"

namespace mllibstar {

/// Per-sender compression residuals (EF-SGD / error feedback): what a
/// lossy codec dropped from stream r's vector this round is added back
/// into the same stream's vector next round, so quantization noise
/// averages out across rounds instead of accumulating as bias. One
/// stream per worker-outbound path; broadcast-style paths (driver or
/// owner to everyone) carry no residual state.
class ErrorFeedback {
 public:
  /// A disabled accumulator: Compensate/Absorb are no-ops.
  ErrorFeedback() = default;

  /// One residual of dimension `dim` per stream, all starting at zero.
  ErrorFeedback(size_t num_streams, size_t dim);

  bool enabled() const { return !residuals_.empty(); }
  size_t num_streams() const { return residuals_.size(); }
  const DenseVector& residual(size_t stream) const;

  /// *v += residual[stream] (no-op when disabled).
  void Compensate(size_t stream, DenseVector* v) const;

  /// residual[stream] = compensated - decoded: the error the wire
  /// just introduced, to be re-sent next round.
  void Absorb(size_t stream, const DenseVector& compensated,
              const DenseVector& decoded);

  /// Overwrites one stream's residual (checkpoint restore). No-op on a
  /// disabled accumulator.
  void RestoreResidual(size_t stream, const DenseVector& residual);

 private:
  std::vector<DenseVector> residuals_;
};

/// The accumulator a trainer should use for `codec`: enabled only when
/// the codec is lossy and the config asks for error feedback (a
/// lossless codec's residual is identically zero, so the state would
/// be dead weight).
ErrorFeedback MakeErrorFeedback(const GradientCodec& codec,
                                const CodecConfig& config,
                                size_t num_streams, size_t dim);

/// Ships `*v` through `codec` as stream `stream`, in place: compensates
/// with the stream's residual, encodes, decodes, absorbs the new
/// residual, and leaves in `*v` the vector the receivers actually see.
/// Returns the encoded wire size and adds the raw and encoded payload
/// bytes to *tally when non-null (the run's codec tally). Pass
/// ef == nullptr for residual-free paths (broadcasts). A lossless codec
/// leaves `*v` untouched: the transmit is accounted (tally bytes and
/// one codec event) and nothing is copied.
uint64_t CodecTransmit(const GradientCodec& codec, ErrorFeedback* ef,
                       size_t stream, DenseVector* v,
                       CodecTally* tally = nullptr);

/// Residual-free broadcast of `v`: returns `v` itself when the codec is
/// lossless, otherwise the decoded copy, written to `*received`.
const DenseVector& CodecBroadcast(const GradientCodec& codec,
                                  const DenseVector& v,
                                  DenseVector* received,
                                  CodecTally* tally = nullptr);

/// Accounts one residual-free transmit of a `dim`-vector (tally bytes
/// and one codec event) without encoding it, for a receiver that
/// already holds the decoded value: the vector itself under a lossless
/// codec, or the result of an earlier transmit of the same vector.
/// Valid for every codec: encoding is deterministic, and a broadcast
/// carries no error-feedback state, so the same vector always decodes
/// the same.
void AccountBroadcast(const GradientCodec& codec, size_t dim,
                      CodecTally* tally = nullptr);

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMM_ERROR_FEEDBACK_H_
