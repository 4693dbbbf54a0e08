#include "ml/serialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "ml/sequence_model.h"
#include "util/check.h"
#include "util/rng.h"

namespace nfv::ml {
namespace {

TEST(Serialize, U64RoundTrip) {
  std::stringstream stream;
  write_u64(stream, 0xdeadbeefcafef00dULL);
  write_u64(stream, 0);
  EXPECT_EQ(read_u64(stream), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(read_u64(stream), 0u);
}

TEST(Serialize, U64TruncatedStreamThrows) {
  std::stringstream stream;
  stream << "abc";
  EXPECT_THROW(read_u64(stream), nfv::util::CheckError);
}

TEST(Serialize, MatrixRoundTrip) {
  Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i) * 0.25f;
  }
  std::stringstream stream;
  write_matrix(stream, m);
  const Matrix restored = read_matrix(stream);
  ASSERT_EQ(restored.rows(), 3u);
  ASSERT_EQ(restored.cols(), 4u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(restored.data()[i], m.data()[i]);
  }
}

TEST(Serialize, MatrixBadMagicThrows) {
  std::stringstream stream;
  write_u64(stream, 12345);  // not kMatrixMagic
  write_u64(stream, 1);
  write_u64(stream, 1);
  EXPECT_THROW(read_matrix(stream), nfv::util::CheckError);
}

TEST(Serialize, MatrixTruncatedBodyThrows) {
  Matrix m(2, 2, 1.0f);
  std::stringstream stream;
  write_matrix(stream, m);
  std::string data = stream.str();
  data.resize(data.size() - 4);  // chop the last float
  std::stringstream truncated(data);
  EXPECT_THROW(read_matrix(truncated), nfv::util::CheckError);
}

TEST(Serialize, EmptyMatrixRoundTrip) {
  Matrix m(0, 5);
  std::stringstream stream;
  write_matrix(stream, m);
  const Matrix restored = read_matrix(stream);
  EXPECT_EQ(restored.rows(), 0u);
  EXPECT_EQ(restored.cols(), 5u);
}

/// A small packed image with tail channels (5 % 8 != 0) and a padded k
/// dimension (7 -> 8), so the round trip covers the panel layout's edge
/// cases, not just the dense interior.
QuantizedMatrix sample_quant_matrix() {
  Matrix m(5, 7);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i % 11) * 0.3f - 1.2f;
  }
  QuantizedMatrix q;
  quantize_pack_b(m, q);
  return q;
}

TEST(Serialize, QuantMatrixRoundTripIsByteExact) {
  const QuantizedMatrix q = sample_quant_matrix();
  std::stringstream stream;
  write_quant_matrix(stream, q);
  const QuantizedMatrix restored = read_quant_matrix(stream);
  EXPECT_EQ(restored.rows, q.rows);
  EXPECT_EQ(restored.cols, q.cols);
  EXPECT_EQ(restored.cols_padded, q.cols_padded);
  // The calibration must survive exactly: codes, scales and column sums
  // are compared element-wise, not "close enough" — a loaded model scores
  // bit-identically to the one that was saved.
  EXPECT_EQ(restored.data, q.data);
  EXPECT_EQ(restored.col_sums, q.col_sums);
  ASSERT_EQ(restored.scales.size(), q.scales.size());
  for (std::size_t c = 0; c < q.scales.size(); ++c) {
    EXPECT_EQ(restored.scales[c], q.scales[c]) << "channel " << c;
  }
}

TEST(Serialize, QuantMatrixBadMagicThrows) {
  std::stringstream stream;
  write_u64(stream, kMatrixMagic);  // a valid magic, but the wrong one
  write_u64(stream, 1);
  write_u64(stream, 1);
  write_u64(stream, 4);
  EXPECT_THROW(read_quant_matrix(stream), nfv::util::CheckError);
}

TEST(Serialize, QuantMatrixTruncatedBodyThrows) {
  const QuantizedMatrix q = sample_quant_matrix();
  std::stringstream stream;
  write_quant_matrix(stream, q);
  std::string data = stream.str();
  data.resize(data.size() - 4);  // chop the last column sum
  std::stringstream truncated(data);
  EXPECT_THROW(read_quant_matrix(truncated), nfv::util::CheckError);
}

TEST(Serialize, QuantMatrixRejectsInconsistentShape) {
  // cols_padded smaller than cols (or not a multiple of 4) means the
  // panel image cannot be valid; the reader must refuse rather than
  // index out of bounds later.
  std::stringstream stream;
  write_u64(stream, kQuantMatrixMagic);
  write_u64(stream, 2);  // rows
  write_u64(stream, 8);  // cols
  write_u64(stream, 4);  // cols_padded < cols
  EXPECT_THROW(read_quant_matrix(stream), nfv::util::CheckError);
}

/// A SequenceModel header (magic + config), without any tensors.
std::stringstream model_header(std::uint64_t vocab, std::uint64_t layers) {
  std::stringstream stream;
  write_u64(stream, kSequenceModelMagic);
  write_u64(stream, vocab);
  write_u64(stream, 4);  // embed_dim
  write_u64(stream, 8);  // hidden
  write_u64(stream, layers);
  write_u64(stream, 3);  // window
  write_u64(stream, 1);  // use_dt_feature
  return stream;
}

// Corrupt headers fail as CheckError before anything is allocated from
// them, instead of escaping as std::bad_alloc from the model constructor.
TEST(Serialize, ModelHeaderWithHugeVocabThrows) {
  std::stringstream stream = model_header(std::uint64_t{1} << 40, 2);
  EXPECT_THROW(SequenceModel::load(stream), nfv::util::CheckError);
}

TEST(Serialize, ModelHeaderWithHugeLayerCountThrows) {
  std::stringstream stream = model_header(16, std::uint64_t{1} << 40);
  EXPECT_THROW(SequenceModel::load(stream), nfv::util::CheckError);
  std::stringstream zero = model_header(16, 0);
  EXPECT_THROW(SequenceModel::load(zero), nfv::util::CheckError);
}

TEST(Serialize, MatrixHeaderBeyondElementLimitThrows) {
  std::stringstream stream;
  write_u64(stream, kMatrixMagic);
  write_u64(stream, std::uint64_t{1} << 30);  // rows
  write_u64(stream, std::uint64_t{1} << 12);  // cols
  EXPECT_THROW(read_matrix(stream), nfv::util::CheckError);
  std::stringstream overflow;
  write_u64(overflow, kMatrixMagic);
  write_u64(overflow, std::uint64_t{1} << 40);
  write_u64(overflow, std::uint64_t{1} << 40);
  EXPECT_THROW(read_matrix(overflow), nfv::util::CheckError);
}

// An int8 LSTM layer whose width disagrees with the model fails at load,
// not at the first score inside a streaming worker.
TEST(Serialize, QuantizedLayerWithWrongColumnsThrowsAtLoad) {
  SequenceModelConfig config;
  config.vocab = 6;
  config.embed_dim = 6;
  config.hidden = 12;
  config.window = 3;
  nfv::util::Rng rng(3);
  SequenceModel model(config, rng);
  model.quantize();
  std::stringstream saved;
  model.save(saved);
  std::string bytes = saved.str();
  // Layer 0 is the first quantized matrix: tag, rows, then cols = 6 + 1 +
  // 12 = 19 (padded to 20). Declaring 18 keeps the matrix self-consistent.
  const std::uint64_t magic = kQuantMatrixMagic;
  const std::size_t at =
      bytes.find(std::string(reinterpret_cast<const char*>(&magic), 8));
  ASSERT_NE(at, std::string::npos);
  std::uint64_t cols = 0;
  std::memcpy(&cols, bytes.data() + at + 16, 8);
  ASSERT_EQ(cols, 19u);
  cols = 18;
  std::memcpy(bytes.data() + at + 16, &cols, 8);
  std::stringstream corrupt(bytes);
  EXPECT_THROW(SequenceModel::load(corrupt), nfv::util::CheckError);
  std::stringstream intact(saved.str());
  EXPECT_NO_THROW(SequenceModel::load(intact));
}

}  // namespace
}  // namespace nfv::ml
