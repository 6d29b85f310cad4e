#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ml/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::ml {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.next_double(-1.0, 1.0);
  return m;
}

TEST(MatrixTest, MatmulIdentity) {
  Matrix identity(3, 3);
  for (int i = 0; i < 3; ++i) identity.at(i, i) = 1.0;
  const Matrix a = random_matrix(3, 3, 1);
  const Matrix result = matmul(a, identity);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_NEAR(result.data()[i], a.data()[i], 1e-12);
  }
}

TEST(MatrixTest, MatmulKnownValues) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

TEST(MatrixTest, MatmulShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(MatrixTest, AtBEqualsExplicitTranspose) {
  const Matrix a = random_matrix(5, 3, 2);
  const Matrix b = random_matrix(5, 4, 3);
  // Explicit transpose of a.
  Matrix at(3, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  const Matrix expected = matmul(at, b);
  const Matrix result = matmul_at_b(a, b);
  ASSERT_EQ(result.rows(), expected.rows());
  for (std::size_t i = 0; i < result.data().size(); ++i) {
    EXPECT_NEAR(result.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(MatrixTest, ABtEqualsExplicitTranspose) {
  const Matrix a = random_matrix(4, 3, 4);
  const Matrix b = random_matrix(5, 3, 5);
  Matrix bt(3, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  }
  const Matrix expected = matmul(a, bt);
  const Matrix result = matmul_a_bt(a, b);
  for (std::size_t i = 0; i < result.data().size(); ++i) {
    EXPECT_NEAR(result.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(MatrixTest, AddBiasRows) {
  Matrix m(2, 3);
  add_bias_rows(m, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 3.0);
}

TEST(MatrixTest, ReluAndBackward) {
  Matrix m(1, 4);
  m.at(0, 0) = -1.0;
  m.at(0, 1) = 2.0;
  m.at(0, 2) = 0.0;
  m.at(0, 3) = -0.5;
  const Matrix pre = m;
  relu_inplace(m);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);

  Matrix grad(1, 4);
  grad.fill(1.0);
  relu_backward_inplace(grad, pre);
  EXPECT_DOUBLE_EQ(grad.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grad.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(grad.at(0, 2), 0.0);
}

TEST(MatrixTest, SumPool) {
  Matrix m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 2;
  m.at(2, 0) = 3;
  m.at(0, 1) = 4;
  const auto pooled = sum_pool(m);
  EXPECT_DOUBLE_EQ(pooled[0], 6.0);
  EXPECT_DOUBLE_EQ(pooled[1], 4.0);
}

TEST(AggregateTest, MeanOverInNeighbors) {
  // Graph: 0 -> 2, 1 -> 2 (in-neighbors of 2 are {0, 1}).
  const nl::Csr in_csr = nl::build_csr(3, {{2, 0}, {2, 1}});
  Matrix features(3, 1);
  features.at(0, 0) = 4.0;
  features.at(1, 0) = 8.0;
  const Matrix out = aggregate_mean(in_csr, features);
  EXPECT_DOUBLE_EQ(out.at(2, 0), 6.0);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 0.0);  // no in-neighbors
}

TEST(AggregateTest, BackwardDistributesGradient) {
  const nl::Csr in_csr = nl::build_csr(3, {{2, 0}, {2, 1}});
  Matrix grad_out(3, 1);
  grad_out.at(2, 0) = 1.0;
  const Matrix grad_in = aggregate_mean_backward(in_csr, grad_out);
  EXPECT_DOUBLE_EQ(grad_in.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(grad_in.at(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(grad_in.at(2, 0), 0.0);
}

TEST(AggregateTest, BackwardIsAdjointOfForward) {
  // <Agg(x), y> == <x, Agg^T(y)> for random x, y.
  util::Rng rng(9);
  const std::size_t n = 20;
  std::vector<std::pair<nl::VertexId, nl::VertexId>> edges;
  for (int e = 0; e < 50; ++e) {
    edges.emplace_back(static_cast<nl::VertexId>(rng.next_below(n)),
                       static_cast<nl::VertexId>(rng.next_below(n)));
  }
  const nl::Csr csr = nl::build_csr(n, edges);
  const Matrix x = random_matrix(n, 3, 10);
  const Matrix y = random_matrix(n, 3, 11);
  const Matrix ax = aggregate_mean(csr, x);
  const Matrix aty = aggregate_mean_backward(csr, y);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    lhs += ax.data()[i] * y.data()[i];
    rhs += x.data()[i] * aty.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(MatrixTest, KernelsBitIdenticalAcrossThreadCounts) {
  // The parallel kernels must match the serial ones bit-for-bit; sizes are
  // chosen to exceed the serial-flop cutoff so the pool actually engages.
  const Matrix a = random_matrix(96, 64, 21);
  const Matrix b = random_matrix(64, 48, 22);
  const Matrix bt = random_matrix(48, 64, 23);
  const Matrix g = random_matrix(96, 48, 24);
  util::Rng rng(25);
  std::vector<std::pair<nl::VertexId, nl::VertexId>> edges;
  for (int e = 0; e < 4000; ++e) {
    edges.emplace_back(static_cast<nl::VertexId>(rng.next_below(96)),
                       static_cast<nl::VertexId>(rng.next_below(96)));
  }
  const nl::Csr csr = nl::build_csr(96, edges);
  const Matrix features = random_matrix(96, 64, 26);

  util::set_global_thread_count(1);
  const Matrix mm1 = matmul(a, b);
  const Matrix atb1 = matmul_at_b(a, g);
  const Matrix abt1 = matmul_a_bt(a, bt);
  const Matrix agg1 = aggregate_mean(csr, features);

  util::set_global_thread_count(4);
  const Matrix mm4 = matmul(a, b);
  const Matrix atb4 = matmul_at_b(a, g);
  const Matrix abt4 = matmul_a_bt(a, bt);
  const Matrix agg4 = aggregate_mean(csr, features);
  util::set_global_thread_count(1);

  EXPECT_EQ(mm1.data(), mm4.data());
  EXPECT_EQ(atb1.data(), atb4.data());
  EXPECT_EQ(abt1.data(), abt4.data());
  EXPECT_EQ(agg1.data(), agg4.data());
}

/// A matrix with the shapes the GCN feeds the kernels: about half the
/// entries zero, some of them -0.0, and every fifth row all zero (the
/// BatchedGcn padding rows and dead ReLU rows).
Matrix sparse_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    if (i % 5 == 3) continue;
    for (std::size_t j = 0; j < cols; ++j) {
      const std::uint64_t pick = rng.next_below(8);
      double& v = m.at(i, j);
      if (pick < 3) {
        v = 0.0;
      } else if (pick == 3) {
        v = -0.0;
      } else {
        v = rng.next_double(-1.0, 1.0);
      }
    }
  }
  return m;
}

// Naive references: every element starts at +0.0 and adds every term,
// zero or not, in ascending k.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix naive_at_b(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) acc += a.at(k, i) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix naive_a_bt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(j, k);
      c.at(i, j) = acc;
    }
  }
  return c;
}

std::vector<std::uint64_t> bits(const Matrix& m) {
  std::vector<std::uint64_t> out;
  out.reserve(m.data().size());
  for (const double v : m.data()) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(MatrixTest, KernelsMatchNaiveLoopsBitForBit) {
  // Output widths straddle the kernel's 8-wide column block; 160 x 40
  // operands put the wider products above the serial flop cutoff, so the
  // threads-4 pass really splits rows.
  constexpr std::size_t kRows = 160;
  constexpr std::size_t kInner = 40;
  for (const int threads : {1, 4}) {
    util::set_global_thread_count(threads);
    for (const std::size_t width : {1u, 4u, 20u, 24u, 33u}) {
      const Matrix a = sparse_matrix(kRows, kInner, 100 + width);
      const Matrix b = sparse_matrix(kInner, width, 200 + width);
      const Matrix g = sparse_matrix(kRows, width, 300 + width);
      const Matrix bt = sparse_matrix(width, kInner, 400 + width);
      EXPECT_EQ(bits(matmul(a, b)), bits(naive_matmul(a, b)))
          << "matmul width " << width << " threads " << threads;
      EXPECT_EQ(bits(matmul_at_b(a, g)), bits(naive_at_b(a, g)))
          << "matmul_at_b width " << width << " threads " << threads;
      EXPECT_EQ(bits(matmul_a_bt(a, bt)), bits(naive_a_bt(a, bt)))
          << "matmul_a_bt width " << width << " threads " << threads;
      // The transposed forms at the narrow inner dimension the GCN head
      // uses (1 x 4 output gradients against 24 x 4 weights).
      const Matrix row = sparse_matrix(1, width, 500 + width);
      const Matrix w = sparse_matrix(kInner, width, 600 + width);
      EXPECT_EQ(bits(matmul_a_bt(row, w)), bits(naive_a_bt(row, w)))
          << "head matmul_a_bt width " << width << " threads " << threads;
      const Matrix col = sparse_matrix(1, kInner, 700 + width);
      EXPECT_EQ(bits(matmul_at_b(col, row)), bits(naive_at_b(col, row)))
          << "head matmul_at_b width " << width << " threads " << threads;
    }
  }
  util::set_global_thread_count(1);
}

TEST(MatrixTest, KernelsKeepPositiveZeroForZeroAndNegativeZeroRows) {
  // A row of A that holds only +0.0 and -0.0 contributes nothing: its
  // output row is +0.0 bit for bit, as a naive sum starting at +0.0 gives.
  Matrix a(3, 9);
  for (std::size_t k = 0; k < 9; ++k) a.at(1, k) = -0.0;
  a.at(2, 4) = -0.0;
  a.at(2, 6) = 2.0;
  Matrix b(9, 11);
  for (double& v : b.data()) v = -1.5;
  for (const int threads : {1, 4}) {
    util::set_global_thread_count(threads);
    const Matrix c = matmul(a, b);
    const Matrix ct = matmul_a_bt(a, Matrix(11, 9));
    for (std::size_t j = 0; j < 11; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.at(0, j)), 0u);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.at(1, j)), 0u);
      EXPECT_EQ(c.at(2, j), -3.0);
    }
    EXPECT_EQ(bits(ct), std::vector<std::uint64_t>(3 * 11, 0u));
    EXPECT_EQ(bits(c), bits(naive_matmul(a, b)));
    EXPECT_EQ(bits(matmul_at_b(b, b)), bits(naive_at_b(b, b)));
    // An empty inner dimension is an empty sum: +0.0 everywhere.
    EXPECT_EQ(bits(matmul_at_b(Matrix(0, 3), Matrix(0, 5))),
              std::vector<std::uint64_t>(3 * 5, 0u));
    EXPECT_EQ(bits(matmul(Matrix(2, 0), Matrix(0, 4))),
              std::vector<std::uint64_t>(2 * 4, 0u));
  }
  util::set_global_thread_count(1);
}

}  // namespace
}  // namespace edacloud::ml
