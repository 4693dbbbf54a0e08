#include "ml/serialize.h"

#include <istream>
#include <ostream>

#include "util/check.h"

namespace nfv::ml {

std::uint64_t checked_elements(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product = 0;
  NFV_CHECK(!__builtin_mul_overflow(a, b, &product) &&
                product <= kMaxCheckpointElements,
            "corrupt checkpoint: " << a << " × " << b
                                   << " elements exceed the limit of "
                                   << kMaxCheckpointElements);
  return product;
}

void write_u64(std::ostream& os, std::uint64_t value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t value = 0;
  is.read(reinterpret_cast<char*>(&value), sizeof(value));
  NFV_CHECK(is.good(), "unexpected end of checkpoint stream");
  return value;
}

std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type at = is.tellg();
  if (at == std::istream::pos_type(-1)) return ~std::uint64_t{0};
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(at);
  if (end == std::istream::pos_type(-1)) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(end - at);
}

void write_matrix(std::ostream& os, const Matrix& m) {
  write_u64(os, kMatrixMagic);
  write_u64(os, m.rows());
  write_u64(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

Matrix read_matrix(std::istream& is, std::size_t rows, std::size_t cols) {
  NFV_CHECK(read_u64(is) == kMatrixMagic, "corrupt checkpoint: bad matrix tag");
  const std::uint64_t saved_rows = read_u64(is);
  const std::uint64_t saved_cols = read_u64(is);
  NFV_CHECK(saved_rows == rows && saved_cols == cols,
            "corrupt checkpoint: matrix is " << saved_rows << " × "
                                             << saved_cols << ", expected "
                                             << rows << " × " << cols);
  checked_elements(rows, cols);
  Matrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  NFV_CHECK(is.good(), "unexpected end of checkpoint stream in matrix body");
  return m;
}

}  // namespace nfv::ml
