// Dense square matrix used for thread correlation maps (TCMs), plus the
// flat upper-triangular pair accumulator the sparse TCM pipeline sums into.
//
// A TCM is an N x N histogram where cell (i, j) accumulates the bytes of
// shared objects accessed in common by thread i and thread j within the
// profiled window (paper Section II).  The matrix is symmetric with an unused
// diagonal by construction, but this container is a plain dense matrix so it
// can also serve page-grain induced maps and test fixtures.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace djvm {

/// Row-major dense square matrix of doubles.
class SquareMatrix {
 public:
  SquareMatrix() = default;
  explicit SquareMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  double& at(std::size_t i, std::size_t j) {
    assert(i < n_ && j < n_);
    return data_[i * n_ + j];
  }
  double at(std::size_t i, std::size_t j) const {
    assert(i < n_ && j < n_);
    return data_[i * n_ + j];
  }

  /// Adds `v` symmetrically to cells (i, j) and (j, i).
  void add_symmetric(std::size_t i, std::size_t j, double v) {
    at(i, j) += v;
    if (i != j) at(j, i) += v;
  }

  /// Sum of all cells.
  [[nodiscard]] double total() const noexcept {
    double s = 0.0;
    for (double v : data_) s += v;
    return s;
  }

  /// Multiplies every cell by `factor` (used for Horvitz-Thompson scaling).
  void scale(double factor) noexcept {
    for (double& v : data_) v *= factor;
  }

  void fill(double v) noexcept {
    for (double& c : data_) c = v;
  }

  [[nodiscard]] const std::vector<double>& raw() const noexcept { return data_; }
  [[nodiscard]] std::vector<double>& raw() noexcept { return data_; }

  bool operator==(const SquareMatrix& other) const = default;

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Strictly-upper-triangular pair accumulator over N endpoints: N(N-1)/2
/// cells in one flat buffer instead of a dense N x N matrix.  TCM accrual is
/// symmetric with an unused diagonal, so this is the natural shape for the
/// sparse pipeline's pair sums — half the memory of SquareMatrix and O(1)
/// unordered-pair updates with no hashing.  Densify to a symmetric
/// SquareMatrix only when a consumer needs the full map.
class UpperTriangle {
 public:
  UpperTriangle() = default;
  explicit UpperTriangle(std::size_t n)
      : n_(n), cells_(n > 1 ? n * (n - 1) / 2 : 0, 0.0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }

  /// Flat index of the unordered pair {i, j}, i != j, both < size().
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    assert(i < j && j < n_);
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }

  /// Adds `v` to the unordered pair {i, j} (i != j).
  void add(std::size_t i, std::size_t j, double v) { cells_[index(i, j)] += v; }

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return cells_[index(i, j)];
  }

  /// Expands to the symmetric dense map (the on-demand densify step).
  [[nodiscard]] SquareMatrix densify() const {
    SquareMatrix m(n_);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j < n_; ++j, ++k) {
        const double v = cells_[k];
        if (v != 0.0) {
          m.at(i, j) = v;
          m.at(j, i) = v;
        }
      }
    }
    return m;
  }

  [[nodiscard]] const std::vector<double>& raw() const noexcept { return cells_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> cells_;
};

}  // namespace djvm
