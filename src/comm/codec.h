#ifndef MLLIBSTAR_COMM_CODEC_H_
#define MLLIBSTAR_COMM_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/vector.h"

namespace mllibstar {

/// The gradient/model compression schemes the communication paths can
/// apply before a vector goes on the wire. Every trainer threads one
/// of these through its broadcast/aggregate/shuffle/push/pull traffic,
/// so bytes-on-the-wire is a measurable experimental axis rather than
/// a hard-coded 8 bytes/double.
enum class CodecKind {
  kDenseF64,    ///< passthrough: 8 bytes/coordinate, bit-exact baseline
  kDenseF32,    ///< float32 downcast: 4 bytes/coordinate
  kInt16Linear, ///< linear quantization, 2 bytes + per-chunk min/max
  kInt8Linear,  ///< linear quantization, 1 byte + per-chunk min/max
  kTopK,        ///< sparsification: keep the largest-|v| coordinates
};

/// Short identifier ("dense-f64", "int8", ...) used in bench output.
std::string CodecName(CodecKind kind);

/// Codec selection plus the knobs the lossy codecs expose.
struct CodecConfig {
  CodecKind kind = CodecKind::kDenseF64;
  /// Values per min/max scaling group for the linear quantizers; a
  /// smaller chunk tracks local dynamic range better but pays more
  /// header bytes (8 per chunk).
  size_t quant_chunk = 1024;
  /// Fraction of coordinates kTopK keeps (at least 1).
  double topk_ratio = 0.01;
  /// Accumulate the compression error per sender and add it back into
  /// the next round's vector (EF-SGD); no-op for lossless codecs.
  bool error_feedback = true;
};

/// One encoded vector: `payload` is the actual serialized wire format
/// and `bytes` its size — the number every simulated link is charged.
struct EncodedChunk {
  uint64_t bytes = 0;
  size_t dim = 0;
  std::vector<uint8_t> payload;
};

/// Interface every codec implements. Encode/Decode do the real
/// transform (the receivers' math runs on decoded values, so fidelity
/// loss shows up in the convergence curves, not in a model of them);
/// EncodedBytes/SparseEncodedBytes let the timing layer size messages
/// without materializing them.
class GradientCodec {
 public:
  virtual ~GradientCodec() = default;

  virtual CodecKind kind() const = 0;
  virtual std::string name() const = 0;
  /// True when Decode(Encode(v)) == v bit-exactly for every v.
  virtual bool lossless() const = 0;

  virtual EncodedChunk Encode(const DenseVector& v) const = 0;
  virtual DenseVector Decode(const EncodedChunk& chunk) const = 0;

  /// Wire size of a dense vector of `dim` coordinates. Must equal
  /// Encode(v).bytes for any v with v.dim() == dim.
  virtual uint64_t EncodedBytes(size_t dim) const = 0;

  /// Wire size of `nnz` (index, value) pairs out of `dim` coordinates
  /// with this codec's value width — 4-byte index plus the encoded
  /// value — never more than the dense encoding. This is the one
  /// sparse-size rule shared by the PS delta pushes and the MLlib*
  /// shuffle accounting.
  virtual uint64_t SparseEncodedBytes(size_t nnz, size_t dim) const;

 protected:
  /// Bytes one encoded value occupies in a sparse (index, value) pair.
  virtual uint64_t value_bytes() const = 0;
};

/// Creates the codec `config` describes.
std::unique_ptr<GradientCodec> MakeCodec(const CodecConfig& config);

/// The shared DenseF64 instance: the 8-bytes/double accounting every
/// call site used before codecs existed, now expressed as the
/// passthrough codec (NetworkModel::DenseBytes is its implementation
/// detail).
const GradientCodec& PassthroughCodec();

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMM_CODEC_H_
