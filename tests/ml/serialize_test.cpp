#include "ml/serialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/lstm_detector.h"
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
  const std::string saved = stream.str();
  const Matrix restored = read_matrix(stream, 3, 4);
  ASSERT_EQ(restored.rows(), 3u);
  ASSERT_EQ(restored.cols(), 4u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(restored.data()[i], m.data()[i]);
  }
  // The reader expects a shape; the same elements in another one are a
  // corrupt header.
  std::stringstream transposed(saved);
  EXPECT_THROW(read_matrix(transposed, 4, 3), nfv::util::CheckError);
}

TEST(Serialize, MatrixBadMagicThrows) {
  std::stringstream stream;
  write_u64(stream, 12345);  // not kMatrixMagic
  write_u64(stream, 1);
  write_u64(stream, 1);
  EXPECT_THROW(read_matrix(stream, 1, 1), nfv::util::CheckError);
}

TEST(Serialize, MatrixTruncatedBodyThrows) {
  Matrix m(2, 2, 1.0f);
  std::stringstream stream;
  write_matrix(stream, m);
  std::string data = stream.str();
  data.resize(data.size() - 4);  // chop the last float
  std::stringstream truncated(data);
  EXPECT_THROW(read_matrix(truncated, 2, 2), nfv::util::CheckError);
}

TEST(Serialize, EmptyMatrixRoundTrip) {
  Matrix m(0, 5);
  std::stringstream stream;
  write_matrix(stream, m);
  const Matrix restored = read_matrix(stream, 0, 5);
  EXPECT_EQ(restored.rows(), 0u);
  EXPECT_EQ(restored.cols(), 5u);
}

/// A SequenceModel header (magic + config), without any tensors.
std::stringstream model_header(std::uint64_t vocab, std::uint64_t layers,
                               std::uint64_t dt_feature = 1) {
  std::stringstream stream;
  write_u64(stream, kSequenceModelMagic);
  write_u64(stream, vocab);
  write_u64(stream, 4);  // embed_dim
  write_u64(stream, 8);  // hidden
  write_u64(stream, layers);
  write_u64(stream, 3);  // window
  write_u64(stream, dt_feature);
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

// Every model reads Δt; a header declaring a model without it is refused,
// naming the field.
TEST(Serialize, ModelHeaderWithoutDtFeatureThrows) {
  std::stringstream stream = model_header(16, 2, 0);
  try {
    SequenceModel::load(stream);
    ADD_FAILURE() << "a header with dt_feature = 0 loaded";
  } catch (const nfv::util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("dt_feature"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, MatrixHeaderBeyondElementLimitThrows) {
  std::stringstream stream;
  write_u64(stream, kMatrixMagic);
  write_u64(stream, std::uint64_t{1} << 30);  // rows
  write_u64(stream, std::uint64_t{1} << 12);  // cols
  EXPECT_THROW(read_matrix(stream, std::size_t{1} << 30, std::size_t{1} << 12),
               nfv::util::CheckError);
  std::stringstream overflow;
  write_u64(overflow, kMatrixMagic);
  write_u64(overflow, std::uint64_t{1} << 40);
  write_u64(overflow, std::uint64_t{1} << 40);
  EXPECT_THROW(
      read_matrix(overflow, std::size_t{1} << 40, std::size_t{1} << 40),
      nfv::util::CheckError);
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzer for LstmDetector::load, which reads the detector
// header, SequenceModel::load's stream and the precision flag, and builds
// an int8 image from the loaded weights when the flag is 1. From a valid
// fp32 and a valid int8 checkpoint it derives, with a fixed seed, byte
// flips, every header, tensor-dimension and flag u64 set to a boundary
// value, and truncations at every 8th offset. Each input must load or
// throw util::CheckError: nothing else may escape, and the sanitizer
// builds catch any crash, out-of-bounds read or undefined conversion (a
// payload flip can make a weight NaN or infinite, which the int8 image
// must refuse before quantizing it). A detector that loads must also
// score a one-window stream.

/// Offsets of the u64 fields of a detector checkpoint that size or
/// select what follows: the detector header (score mode, window), the
/// model header, each tensor's shape and the precision flag.
std::vector<std::size_t> size_fields(const std::string& bytes,
                                     const SequenceModelConfig& config) {
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    return value;
  };
  std::vector<std::size_t> fields{8, 16};  // score mode, window
  std::size_t at = 32;  // past the detector header and the model magic
  for (int i = 0; i < 6; ++i, at += 8) fields.push_back(at);
  const std::size_t tensors = 3 + 2 * config.layers;
  for (std::size_t t = 0; t < tensors; ++t) {
    fields.push_back(at + 8);   // rows
    fields.push_back(at + 16);  // cols
    at += 24 + 4 * u64_at(at + 8) * u64_at(at + 16);
  }
  fields.push_back(at);  // precision flag
  at += 8;
  EXPECT_EQ(at, bytes.size()) << "checkpoint layout walk out of step";
  return fields;
}

struct FuzzTally {
  std::size_t loaded = 0;
  std::size_t rejected = 0;
};

void load_or_reject(const std::string& bytes,
                    const std::vector<logproc::ParsedLog>& probe,
                    const std::string& what, FuzzTally& tally) {
  std::stringstream stream(bytes);
  std::optional<core::LstmDetector> detector;
  try {
    detector.emplace(core::LstmDetector::load(stream));
  } catch (const nfv::util::CheckError&) {
    ++tally.rejected;
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
    return;
  }
  ++tally.loaded;
  const SequenceModelConfig& config = detector->model().config();
  if (probe.size() != config.window + 1 ||
      probe.back().template_id >= static_cast<std::int32_t>(config.vocab)) {
    return;  // the probe window does not fit this (mutated) shape
  }
  EXPECT_NO_THROW(detector->score(probe, 0)) << what;
}

/// A trained detector of the fuzzer's shape: window 3, embed 5, hidden 6
/// over 7 templates.
core::LstmDetector fuzz_detector() {
  core::LstmDetectorConfig config;
  config.window = 3;
  config.embed_dim = 5;
  config.hidden = 6;
  config.initial_epochs = 1;
  config.oversample = false;
  std::vector<logproc::ParsedLog> logs;
  nfv::util::Rng rng(20261018);
  for (std::int64_t i = 0; i < 60; ++i) {
    logs.push_back({nfv::util::SimTime{i * 40},
                    static_cast<std::int32_t>(rng.uniform_index(7))});
  }
  core::LstmDetector detector(config);
  const core::LogView view{logs};
  detector.fit({&view, 1}, 7);
  return detector;
}

TEST(Serialize, MutatedCheckpointsLoadOrThrowCheckError) {
  // One window: ids 1, 4, 6 with Δt 0, 12 and 300 s, then target 2.
  const std::vector<logproc::ParsedLog> window{
      {nfv::util::SimTime{0}, 1},
      {nfv::util::SimTime{12}, 4},
      {nfv::util::SimTime{312}, 6},
      {nfv::util::SimTime{312}, 2}};
  core::LstmDetector detector = fuzz_detector();
  nfv::util::Rng rng(20261018);
  for (const bool quantized : {false, true}) {
    detector.set_quantized(quantized);
    std::stringstream saved;
    detector.save(saved);
    const std::string valid = saved.str();
    const std::string kind = quantized ? "int8" : "fp32";
    FuzzTally tally;
    load_or_reject(valid, window, kind + " valid", tally);
    ASSERT_EQ(tally.loaded, 1u);

    for (int i = 0; i < 1500; ++i) {
      std::string bytes = valid;
      const std::size_t at = rng.uniform_index(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.uniform_index(255)));
      load_or_reject(bytes, window,
                     kind + " flip at " + std::to_string(at), tally);
    }
    constexpr std::uint64_t kBoundaries[] = {
        0, 1, std::uint64_t{1} << 28, (std::uint64_t{1} << 28) + 1,
        std::uint64_t{1} << 63, ~std::uint64_t{0}};
    for (const std::size_t at :
         size_fields(valid, detector.model().config())) {
      for (const std::uint64_t value : kBoundaries) {
        std::string bytes = valid;
        std::memcpy(bytes.data() + at, &value, sizeof(value));
        load_or_reject(bytes, window,
                       kind + " u64 at " + std::to_string(at) + " = " +
                           std::to_string(value),
                       tally);
      }
    }
    for (std::size_t at = 0; at < valid.size(); at += 8) {
      load_or_reject(valid.substr(0, at), window,
                     kind + " truncated at " + std::to_string(at), tally);
    }
    // Not vacuous: float payload flips load, shape and size flips do not.
    EXPECT_GT(tally.loaded, 100u) << kind;
    EXPECT_GT(tally.rejected, 500u) << kind;
  }
}

// A checkpoint holding one NaN or infinite parameter is refused in both
// precisions, naming the tensor, wherever the value sits: the embedding,
// a gate matrix, a bias or the output head. (Loaded, an fp32 detector
// would score NaN, which never crosses a threshold, and an int8 one would
// refuse it only in a gate matrix.)
TEST(Serialize, NonFiniteParameterIsRefusedInBothPrecisions) {
  core::LstmDetector detector = fuzz_detector();
  const SequenceModelConfig& config = detector.model().config();
  // Payload offset of each tensor of the checkpoint, in params() order.
  const auto payloads = [&](const std::string& bytes) {
    std::vector<std::size_t> at;
    std::size_t pos = 80;  // detector header, model magic and config
    for (std::size_t t = 0; t < 3 + 2 * config.layers; ++t) {
      std::uint64_t rows = 0, cols = 0;
      std::memcpy(&rows, bytes.data() + pos + 8, sizeof(rows));
      std::memcpy(&cols, bytes.data() + pos + 16, sizeof(cols));
      at.push_back(pos + 24);
      pos += 24 + 4 * rows * cols;
    }
    return at;
  };
  const std::pair<std::size_t, const char*> tensors[] = {
      {0, "embed.table"}, {1, "lstm0.weight"}, {4, "lstm1.bias"},
      {5, "out.weight"}};
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const bool quantized : {false, true}) {
    detector.set_quantized(quantized);
    std::stringstream saved;
    detector.save(saved);
    const std::string valid = saved.str();
    const std::vector<std::size_t> at = payloads(valid);
    for (const auto& [tensor, name] : tensors) {
      for (const float bad :
           {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf}) {
        std::string bytes = valid;
        // The tensor's third element: not the first, not the last.
        std::memcpy(bytes.data() + at[tensor] + 2 * sizeof(float), &bad,
                    sizeof(bad));
        std::stringstream stream(bytes);
        try {
          core::LstmDetector::load(stream);
          ADD_FAILURE() << name << " = " << bad << " loaded, precision flag "
                        << quantized;
        } catch (const nfv::util::CheckError& e) {
          EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
              << e.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace nfv::ml
