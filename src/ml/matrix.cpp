#include "ml/matrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace edacloud::ml {

namespace {

// Row-blocked parallelism over the global pool. Output rows are disjoint
// and each element's accumulation order is unchanged from the serial loop,
// so results are bit-identical at any thread count. Small products stay
// serial: the GCN trains on lots of tiny matrices where dispatch overhead
// would dominate.
constexpr std::size_t kRowGrain = 16;
constexpr std::size_t kSerialFlopCutoff = 1 << 15;

int threads_for(std::size_t flops) {
  return flops < kSerialFlopCutoff ? 1 : 0;  // 0 = global default width
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) t.at(j, i) = m.at(i, j);
  }
  return t;
}

// C = op(A) * B, the one kernel behind all three products. op(A) is A, or
// with `transpose_a` A^T read in place through strides, so matmul_at_b
// never copies A. Per output row the kernel gathers op(A)'s nonzero
// (B row, a) terms once, then sums kBlock-wide column blocks in registers
// over that list and stores each block once. The gather is branchless:
// every term is written and only nonzeros advance the count, since ReLU
// outputs and their gradients are zero at random and a branch on them
// mispredicts. Every element starts at +0.0 and adds its nonzero terms in
// ascending k, so the bits equal the naive triple loop's: a zero term adds
// +-0.0 to a sum that starts at +0.0, which never changes it (operands are
// assumed finite).
constexpr std::size_t kBlock = 8;

Matrix gemm(const Matrix& a, bool transpose_a, const Matrix& b) {
  const std::size_t rows = transpose_a ? a.cols() : a.rows();
  const std::size_t inner = transpose_a ? a.rows() : a.cols();
  // op(A)(i, k) = a.data()[i * row_stride + k * col_stride].
  const std::size_t row_stride = transpose_a ? 1 : a.cols();
  const std::size_t col_stride = transpose_a ? a.cols() : 1;
  Matrix c(rows, b.cols());
  util::parallel_for(
      threads_for(rows * inner * b.cols()), 0, rows, kRowGrain,
      [&](std::size_t row_begin, std::size_t row_end, std::size_t, unsigned) {
        std::vector<std::pair<const double*, double>> terms(inner);
        for (std::size_t i = row_begin; i < row_end; ++i) {
          std::size_t count = 0;
          for (std::size_t k = 0; k < inner; ++k) {
            const double av = a.data()[i * row_stride + k * col_stride];
            terms[count] = {b.row(k), av};
            count += av != 0.0;
          }
          double* crow = c.row(i);
          std::size_t j = 0;
          for (; j + kBlock <= b.cols(); j += kBlock) {
            double acc[kBlock] = {};
            for (std::size_t t = 0; t < count; ++t) {
              const auto [brow, av] = terms[t];
              for (std::size_t l = 0; l < kBlock; ++l) {
                acc[l] += av * brow[j + l];
              }
            }
            std::copy_n(acc, kBlock, crow + j);
          }
          for (; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t t = 0; t < count; ++t) {
              acc += terms[t].second * terms[t].first[j];
            }
            crow[j] = acc;
          }
        }
      });
  return c;
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul shape");
  return gemm(a, false, b);
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_at_b shape");
  return gemm(a, true, b);
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_a_bt shape");
  return gemm(a, false, transpose(b));
}

void add_bias_rows(Matrix& m, const std::vector<double>& bias) {
  if (bias.size() != m.cols()) throw std::invalid_argument("bias shape");
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] += bias[j];
  }
}

void relu_inplace(Matrix& m) {
  for (double& v : m.data()) v = std::max(0.0, v);
}

void relu_backward_inplace(Matrix& grad, const Matrix& pre_activation) {
  if (grad.rows() != pre_activation.rows() ||
      grad.cols() != pre_activation.cols()) {
    throw std::invalid_argument("relu backward shape");
  }
  // A select, not a conditional store, so the loop vectorizes instead of
  // branching on the sign of every pre-activation.
  for (std::size_t i = 0; i < grad.data().size(); ++i) {
    grad.data()[i] = pre_activation.data()[i] <= 0.0 ? 0.0 : grad.data()[i];
  }
}

std::vector<double> sum_pool(const Matrix& m) {
  std::vector<double> out(m.cols(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += row[j];
  }
  return out;
}

Matrix aggregate_mean(const nl::Csr& in_csr, const Matrix& features) {
  if (in_csr.vertex_count() != features.rows()) {
    throw std::invalid_argument("aggregate shape");
  }
  Matrix out(features.rows(), features.cols());
  // Gather form: each output row reads its own in-edge list, so vertices
  // fan out across the pool race-free with unchanged accumulation order.
  util::parallel_for(
      threads_for(in_csr.edge_count() * features.cols()), 0,
      in_csr.vertex_count(), kRowGrain,
      [&](std::size_t row_begin, std::size_t row_end, std::size_t, unsigned) {
        for (std::size_t i = row_begin; i < row_end; ++i) {
          const nl::VertexId v = static_cast<nl::VertexId>(i);
          const auto [begin, end] = in_csr.range(v);
          if (begin == end) continue;
          const double inv = 1.0 / static_cast<double>(end - begin);
          double* orow = out.row(v);
          for (std::uint32_t e = begin; e < end; ++e) {
            const double* frow = features.row(in_csr.targets[e]);
            for (std::size_t j = 0; j < features.cols(); ++j) {
              orow[j] += inv * frow[j];
            }
          }
        }
      });
  return out;
}

Matrix aggregate_mean_backward(const nl::Csr& in_csr, const Matrix& grad_out) {
  // Scatter over edge targets — rows collide across vertices, so this stays
  // serial (it is a small fraction of GCN backprop time).
  Matrix grad_in(grad_out.rows(), grad_out.cols());
  for (nl::VertexId v = 0; v < in_csr.vertex_count(); ++v) {
    const auto [begin, end] = in_csr.range(v);
    if (begin == end) continue;
    const double inv = 1.0 / static_cast<double>(end - begin);
    const double* grow = grad_out.row(v);
    for (std::uint32_t e = begin; e < end; ++e) {
      double* irow = grad_in.row(in_csr.targets[e]);
      for (std::size_t j = 0; j < grad_out.cols(); ++j) {
        irow[j] += inv * grow[j];
      }
    }
  }
  return grad_in;
}

}  // namespace edacloud::ml
