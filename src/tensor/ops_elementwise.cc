#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

namespace {

// Which arithmetic op a BroadcastBinary call performs, so the contiguous
// paths can dispatch to the vectorized kernel table. kGeneric runs the
// scalar callable per element.
enum class BinKind { kGeneric, kAdd, kSub, kMul, kDiv };

// True when `part`, leading 1s dropped, equals the trailing dims of `whole`:
// `whole` is then a run of rows of part.numel() elements, each lined up with
// `part` element for element.
bool IsTrailingPart(const Shape& part, const Shape& whole) {
  const std::vector<int64_t>& p = part.dims();
  const std::vector<int64_t>& w = whole.dims();
  const auto first = std::find_if(p.begin(), p.end(),
                                  [](int64_t d) { return d != 1; });
  const auto len = p.end() - first;
  return len <= static_cast<std::ptrdiff_t>(w.size()) &&
         std::equal(first, p.end(), w.end() - len);
}

// Applies fn(a_i, b_i) with NumPy broadcasting. Fast paths: identical shapes,
// scalar operands, and one operand being the trailing dims of the other (one
// kernel call per row); the arithmetic kinds run through the kernel table,
// which performs the same per-element IEEE operation. Other shapes walk
// output indices with stride-0 for broadcast dimensions.
template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, BinKind kind, Fn fn) {
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Empty(out_shape);  // every element written below
  float* o = out.data();
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = out_shape.numel();
  const simd::KernelTable& K = simd::Active();
  // dst[i] = fn(x[i], y[i]) over `len` aligned elements.
  const auto apply = [&](const float* x, const float* y, float* dst,
                         int64_t len) {
    switch (kind) {
      case BinKind::kAdd:
        return K.add(x, y, dst, len);
      case BinKind::kSub:
        return K.sub(x, y, dst, len);
      case BinKind::kMul:
        return K.mul(x, y, dst, len);
      case BinKind::kDiv:
        return K.div(x, y, dst, len);
      case BinKind::kGeneric:
        break;
    }
    for (int64_t i = 0; i < len; ++i) dst[i] = fn(x[i], y[i]);
  };

  if (a.shape() == b.shape()) {
    apply(pa, pb, o, n);
    return out;
  }
  if (a.numel() == 1) {
    const float va = pa[0];
    if (kind == BinKind::kAdd) {
      K.add_scalar(va, pb, o, n);
    } else if (kind == BinKind::kMul) {
      K.scale(va, pb, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(va, pb[i]);
    }
    return out;
  }
  if (b.numel() == 1) {
    const float vb = pb[0];
    if (kind == BinKind::kAdd) {
      K.add_scalar(vb, pa, o, n);
    } else if (kind == BinKind::kMul) {
      K.scale(vb, pa, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(pa[i], vb);
    }
    return out;
  }
  if (a.shape() == out_shape && IsTrailingPart(b.shape(), out_shape)) {
    const int64_t m = b.numel();
    for (int64_t r = 0; r < n; r += m) apply(pa + r, pb, o + r, m);
    return out;
  }
  if (b.shape() == out_shape && IsTrailingPart(a.shape(), out_shape)) {
    const int64_t m = a.numel();
    for (int64_t r = 0; r < n; r += m) apply(pa, pb + r, o + r, m);
    return out;
  }

  // General case: per-dimension strides, 0 where the operand broadcasts.
  const int nd = out_shape.ndim();
  std::vector<int64_t> sa(nd, 0), sb(nd, 0), idx(nd, 0);
  {
    const auto stra = ContiguousStrides(a.shape());
    const auto strb = ContiguousStrides(b.shape());
    for (int i = 1; i <= nd; ++i) {
      if (i <= a.ndim() && a.shape()[a.ndim() - i] != 1) {
        sa[nd - i] = stra[a.ndim() - i];
      }
      if (i <= b.ndim() && b.shape()[b.ndim() - i] != 1) {
        sb[nd - i] = strb[b.ndim() - i];
      }
    }
  }
  int64_t oa = 0, ob = 0;
  for (int64_t i = 0; i < n; ++i) {
    o[i] = fn(pa[oa], pb[ob]);
    // Odometer increment over the output index.
    for (int d = nd - 1; d >= 0; --d) {
      ++idx[d];
      oa += sa[d];
      ob += sb[d];
      if (idx[d] < out_shape[d]) break;
      oa -= sa[d] * out_shape[d];
      ob -= sb[d] * out_shape[d];
      idx[d] = 0;
    }
  }
  return out;
}

// Elementwise unary with VJP dX = dfn(x, y) * cot. A template, so both
// callables inline into their loops.
template <typename Fn, typename DFn>
Tensor UnaryOp(const std::string& name, const Tensor& x, Fn fn, DFn dfn_xy) {
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(px[i]);
  return MakeOp(name, {x}, out,
                [x, dfn_xy](const Tensor& y, const Tensor& cot,
                            const NeededMask&) {
                  Tensor gx = Tensor::Empty(x.shape());
                  const float* px = x.data();
                  const float* py = y.data();
                  const float* pc = cot.data();
                  float* pg = gx.data();
                  const int64_t n = x.numel();
                  for (int64_t i = 0; i < n; ++i) {
                    pg[i] = dfn_xy(px[i], py[i]) * pc[i];
                  }
                  return std::vector<Tensor>{gx};
                });
}

// Unary op whose forward is o = c * x and whose VJP is g = c * cot — Neg and
// Scale, which ride the vectorized scale kernel on both passes.
Tensor ScaleOp(const std::string& name, const Tensor& x, float c) {
  Tensor out = Tensor::Empty(x.shape());
  simd::Active().scale(c, x.data(), out.data(), x.numel());
  return MakeOp(name, {x}, out, [c](const Tensor&, const Tensor& cot,
                                    const NeededMask&) {
    Tensor gx = Tensor::Empty(cot.shape());
    simd::Active().scale(c, cot.data(), gx.data(), cot.numel());
    return std::vector<Tensor>{gx};
  });
}

}  // namespace

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  CF_CHECK(BroadcastableTo(target, t.shape()))
      << "cannot reduce " << t.shape().ToString() << " to " << target.ToString();
  Tensor out = Tensor::Zeros(target);
  float* po = out.data();
  const float* pt = t.data();
  if (IsTrailingPart(target, t.shape())) {
    // Rows of t line up with the target: add them in ascending order from
    // +0, the per-element order of the index walk below.
    const int64_t m = target.numel();
    const simd::KernelTable& K = simd::Active();
    for (int64_t r = 0; r < t.numel(); r += m) K.accumulate(po, pt + r, m);
    return out;
  }
  const int nd = t.ndim();
  // Output strides aligned to t's trailing dims; 0 where target broadcasts.
  std::vector<int64_t> so(nd, 0), idx(nd, 0);
  const auto stro = ContiguousStrides(target);
  for (int i = 1; i <= nd; ++i) {
    if (i <= target.ndim() && target[target.ndim() - i] != 1) {
      so[nd - i] = stro[target.ndim() - i];
    }
  }
  const int64_t n = t.numel();
  int64_t oo = 0;
  for (int64_t i = 0; i < n; ++i) {
    po[oo] += pt[i];
    for (int d = nd - 1; d >= 0; --d) {
      ++idx[d];
      oo += so[d];
      if (idx[d] < t.shape()[d]) break;
      oo -= so[d] * t.shape()[d];
      idx[d] = 0;
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kAdd,
                               [](float x, float y) { return x + y; });
  return MakeOp("add", {a, b}, out, [a, b](const Tensor&, const Tensor& cot,
                                           const NeededMask& needed) {
    // The broadcast reduce is the only work; skip it for an unneeded side.
    return std::vector<Tensor>{
        needed[0] ? ReduceToShape(cot, a.shape()) : Tensor(),
        needed[1] ? ReduceToShape(cot, b.shape()) : Tensor()};
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kSub,
                               [](float x, float y) { return x - y; });
  return MakeOp("sub", {a, b}, out, [a, b](const Tensor&, const Tensor& cot,
                                           const NeededMask&) {
    Tensor gb = Tensor::Empty(cot.shape());
    simd::Active().scale(-1.0f, cot.data(), gb.data(), cot.numel());
    return std::vector<Tensor>{ReduceToShape(cot, a.shape()),
                               ReduceToShape(gb, b.shape())};
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kMul,
                               [](float x, float y) { return x * y; });
  return MakeOp("mul", {a, b}, out, [a, b](const Tensor&, const Tensor& cot,
                                           const NeededMask&) {
    Tensor ga_full = BroadcastBinary(cot, b, BinKind::kMul,
                                     [](float c, float y) { return c * y; });
    Tensor gb_full = BroadcastBinary(cot, a, BinKind::kMul,
                                     [](float c, float x) { return c * x; });
    return std::vector<Tensor>{ReduceToShape(ga_full, a.shape()),
                               ReduceToShape(gb_full, b.shape())};
  });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kDiv,
                               [](float x, float y) { return x / y; });
  return MakeOp("div", {a, b}, out, [a, b](const Tensor&, const Tensor& cot,
                                           const NeededMask&) {
    Tensor ga_full = BroadcastBinary(cot, b, BinKind::kDiv,
                                     [](float c, float y) { return c / y; });
    Tensor tmp = BroadcastBinary(
        a, b, BinKind::kGeneric,
        [](float x, float y) { return -x / (y * y); });
    Tensor gb_full = BroadcastBinary(cot, tmp, BinKind::kMul,
                                     [](float c, float t) { return c * t; });
    return std::vector<Tensor>{ReduceToShape(ga_full, a.shape()),
                               ReduceToShape(gb_full, b.shape())};
  });
}

Tensor Neg(const Tensor& x) { return ScaleOp("neg", x, -1.0f); }

Tensor Scale(const Tensor& x, float c) { return ScaleOp("scale", x, c); }

Tensor AddScalar(const Tensor& x, float c) {
  return UnaryOp("add_scalar", x, [c](float v) { return v + c; },
                 [](float, float) { return 1.0f; });
}

Tensor Exp(const Tensor& x) {
  return UnaryOp("exp", x, [](float v) { return std::exp(v); },
                 [](float, float y) { return y; });
}

Tensor Log(const Tensor& x) {
  return UnaryOp("log", x, [](float v) { return std::log(v); },
                 [](float v, float) { return 1.0f / v; });
}

Tensor Sqrt(const Tensor& x) {
  return UnaryOp("sqrt", x, [](float v) { return std::sqrt(v); },
                 [](float, float y) { return 0.5f / y; });
}

Tensor Abs(const Tensor& x) {
  return UnaryOp("abs", x, [](float v) { return std::fabs(v); },
                 [](float v, float) { return v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f); });
}

Tensor Square(const Tensor& x) {
  return UnaryOp("square", x, [](float v) { return v * v; },
                 [](float v, float) { return 2.0f * v; });
}

Tensor Tanh(const Tensor& x) {
  return UnaryOp("tanh", x, [](float v) { return std::tanh(v); },
                 [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryOp("sigmoid", x,
                 [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
                 [](float, float y) { return y * (1.0f - y); });
}

Tensor Relu(const Tensor& x) {
  return UnaryOp("relu", x, [](float v) { return v > 0.0f ? v : 0.0f; },
                 [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; });
}

namespace {

// The bits of `v > 0 ? pos : neg`, picked by a bitwise select so a loop
// calling it has no branch and vectorizes. A ?: does not: gcc 12 reports
// "control flow in loop", and where an arm holds a multiply it sinks the
// multiply into the branch and then may not speculate it
// (-ftrapping-math). Either arm's bits pass through untouched, NaN included.
inline float SelectPositive(float v, float pos, float neg) {
  uint32_t pos_bits, neg_bits;
  std::memcpy(&pos_bits, &pos, sizeof(pos_bits));
  std::memcpy(&neg_bits, &neg, sizeof(neg_bits));
  const uint32_t keep = 0u - static_cast<uint32_t>(v > 0.0f);
  const uint32_t bits = (pos_bits & keep) | (neg_bits & ~keep);
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

}  // namespace

Tensor LeakyRelu(const Tensor& x, float slope) {
  return UnaryOp("leaky_relu", x,
                 [slope](float v) { return SelectPositive(v, v, slope * v); },
                 [slope](float v, float) {
                   return SelectPositive(v, 1.0f, slope);
                 });
}

Tensor Pow(const Tensor& x, float exponent) {
  return UnaryOp("pow", x,
                 [exponent](float v) { return std::pow(v, exponent); },
                 [exponent](float v, float) {
                   return exponent * std::pow(v, exponent - 1.0f);
                 });
}

}  // namespace causalformer
