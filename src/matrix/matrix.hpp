// Dense row-major matrix container and lightweight views.
//
// The library works exclusively in double precision (the BLAS-3 SYRK the
// paper analyzes is dtype-agnostic; communication volumes are measured in
// words). Views carry a leading dimension so sub-blocks of a distributed
// matrix can be addressed without copies.
//
// Storage is 64-byte aligned with the leading dimension rounded up to the
// vector granule (align.hpp), so every row starts on a cache-line boundary
// and the packed kernel engine can use full-width vector loads. The padding
// is never part of the logical matrix: size() counts rows()*cols(), equality
// compares logical entries, and communication paths flatten logically via
// the flat_* helpers below — never by walking raw storage.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "matrix/align.hpp"
#include "support/check.hpp"

namespace parsyrk {

class MatrixView;
class ConstMatrixView;

/// Owning dense matrix, row-major, 64-byte aligned, ld() >= cols().
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows),
        cols_(cols),
        ld_(padded_ld(cols)),
        data_(rows * padded_ld(cols), fill) {}

  static Matrix from_rows(
      std::initializer_list<std::initializer_list<double>> rows);

  /// A rows×cols matrix whose entries are left uninitialised (no serial
  /// zero-fill). The storage is fresh pages, first touched by whoever
  /// writes them, or a reused block that still holds a dropped matrix's
  /// entries (align.hpp). Every entry must be written before it is read.
  static Matrix uninitialized(std::size_t rows, std::size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.ld_ = padded_ld(cols);
    m.data_ = AlignedVector(rows * m.ld_);
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Row stride of the aligned storage; >= cols(), multiple of kLdGranule.
  std::size_t ld() const { return ld_; }
  /// Logical element count rows()*cols() — excludes alignment padding.
  std::size_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j) {
    PARSYRK_CHECK(i < rows_ && j < cols_);
    return data_[i * ld_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    PARSYRK_CHECK(i < rows_ && j < cols_);
    return data_[i * ld_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Mutable view of the sub-block [r0, r0+nr) x [c0, c0+nc).
  MatrixView block(std::size_t r0, std::size_t c0, std::size_t nr,
                   std::size_t nc);
  ConstMatrixView block(std::size_t r0, std::size_t c0, std::size_t nr,
                        std::size_t nc) const;
  MatrixView view();
  ConstMatrixView view() const;

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Logical equality: same shape, same entries (padding ignored).
  bool operator==(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
  AlignedVector data_;
};

/// Non-owning mutable view with a leading dimension (row stride).
class MatrixView {
 public:
  MatrixView(double* p, std::size_t rows, std::size_t cols, std::size_t ld)
      : p_(p), rows_(rows), cols_(cols), ld_(ld) {
    PARSYRK_CHECK(ld >= cols);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  double* data() const { return p_; }

  double& operator()(std::size_t i, std::size_t j) const {
    PARSYRK_CHECK(i < rows_ && j < cols_);
    return p_[i * ld_ + j];
  }

  MatrixView block(std::size_t r0, std::size_t c0, std::size_t nr,
                   std::size_t nc) const {
    PARSYRK_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_);
    return {p_ + r0 * ld_ + c0, nr, nc, ld_};
  }

  /// Copies `src` into this view; shapes must match.
  void assign(const ConstMatrixView& src) const;
  void fill(double v) const;

 private:
  double* p_;
  std::size_t rows_, cols_, ld_;
};

/// Non-owning read-only view with a leading dimension.
class ConstMatrixView {
 public:
  ConstMatrixView(const double* p, std::size_t rows, std::size_t cols,
                  std::size_t ld)
      : p_(p), rows_(rows), cols_(cols), ld_(ld) {
    PARSYRK_CHECK(ld >= cols);
  }
  // Implicit: a mutable view is usable wherever a const view is expected.
  ConstMatrixView(const MatrixView& v)  // NOLINT(google-explicit-constructor)
      : p_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  const double* data() const { return p_; }

  double operator()(std::size_t i, std::size_t j) const {
    PARSYRK_CHECK(i < rows_ && j < cols_);
    return p_[i * ld_ + j];
  }

  ConstMatrixView block(std::size_t r0, std::size_t c0, std::size_t nr,
                        std::size_t nc) const {
    PARSYRK_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_);
    return {p_ + r0 * ld_ + c0, nr, nc, ld_};
  }

  /// Materializes the view into an owning Matrix.
  Matrix to_matrix() const;

 private:
  const double* p_;
  std::size_t rows_, cols_, ld_;
};

// --- Logical (row-major) flat addressing -----------------------------------
//
// The SPMD algorithms address matrices by flat index t <-> (t/cols, t%cols)
// when chunking them for collectives. With padded storage that mapping no
// longer coincides with raw memory, so every such walk goes through these
// helpers; the values (and therefore every communication ledger and golden
// trace) are identical to the historical contiguous layout.

/// Row-major flatten of the whole view.
std::vector<double> flat_copy(const ConstMatrixView& m);

/// Row-major flatten of flat indices [lo, hi).
std::vector<double> flat_copy(const ConstMatrixView& m, std::size_t lo,
                              std::size_t hi);

/// Appends the row-major flatten of `m` to `out`.
void flat_append(const ConstMatrixView& m, std::vector<double>& out);

/// Writes `src` into the view at flat indices [lo, lo + src.size()).
void flat_assign(const MatrixView& m, std::size_t lo,
                 std::span<const double> src);

/// Fills `m` with uniform random entries using the given seed.
class Rng;

}  // namespace parsyrk
