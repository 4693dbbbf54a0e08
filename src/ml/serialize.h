// Minimal binary (de)serialization for model checkpoints. Little-endian
// host order; the library never exchanges checkpoints across machines.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "ml/matrix.h"

namespace nfv::ml {

inline constexpr std::uint64_t kSequenceModelMagic = 0x4e46565345514d31ULL;
inline constexpr std::uint64_t kAutoencoderMagic = 0x4e4656414531ULL;
inline constexpr std::uint64_t kMatrixMagic = 0x4e46564d5831ULL;

/// Largest element count a checkpoint header may declare for one tensor or
/// one model's parameters: 2^28 floats (1 GiB). A larger header is corrupt;
/// rejecting it before allocating turns a std::bad_alloc into a CheckError.
inline constexpr std::uint64_t kMaxCheckpointElements = std::uint64_t{1}
                                                        << 28;

/// a × b; throws util::CheckError when the product overflows or exceeds
/// kMaxCheckpointElements.
std::uint64_t checked_elements(std::uint64_t a, std::uint64_t b);

void write_u64(std::ostream& os, std::uint64_t value);
std::uint64_t read_u64(std::istream& is);

/// Bytes between the read position and the end of a seekable stream (the
/// position is restored); UINT64_MAX when the stream cannot seek.
std::uint64_t bytes_left(std::istream& is);

void write_matrix(std::ostream& os, const Matrix& m);
/// Read a rows × cols matrix: a header declaring any other shape throws
/// util::CheckError before the body is allocated.
Matrix read_matrix(std::istream& is, std::size_t rows, std::size_t cols);

}  // namespace nfv::ml
