// Tape-based reverse-mode automatic differentiation.
//
// Every op produces a Var: a shared node holding the value, a grad buffer,
// links to its parents and a closure that pushes its output gradient back to
// them. Backward() topologically sorts the graph from the loss and runs the
// closures in reverse order. Parameters are leaf Vars with requires_grad;
// they survive across steps while intermediate nodes free themselves when
// the loss Var goes out of scope.
#ifndef TSFM_NN_AUTOGRAD_H_
#define TSFM_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace tsfm::nn {

class Node;

/// Shared handle to a graph node. Copy = alias.
using Var = std::shared_ptr<Node>;

/// \brief One node of the autodiff graph.
class Node {
 public:
  Node(Tensor value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {
    if (requires_grad_) grad_ = Tensor(value_.rows(), value_.cols());
  }

  const Tensor& value() const { return value_; }
  Tensor& value() { return value_; }
  Tensor& grad() { return grad_; }
  const Tensor& grad() const { return grad_; }
  bool requires_grad() const { return requires_grad_; }

  /// Zeroes the accumulated gradient.
  void ZeroGrad() { grad_.Fill(0.0f); }

  const std::vector<Var>& parents() const { return parents_; }
  void set_parents(std::vector<Var> parents) { parents_ = std::move(parents); }
  void set_backward(std::function<void()> fn) { backward_fn_ = std::move(fn); }
  const std::function<void()>& backward_fn() const { return backward_fn_; }

 private:
  Tensor value_;
  Tensor grad_;
  bool requires_grad_;
  std::vector<Var> parents_;
  std::function<void()> backward_fn_;
};

/// Creates a leaf variable (no parents). Parameters use requires_grad=true;
/// constant inputs use false.
Var MakeLeaf(Tensor value, bool requires_grad);

/// Creates an interior node whose gradient flows to `parents` via `backward`.
/// The node requires grad iff any parent does and no NoGradGuard is active
/// on this thread; only then does it keep `parents` and `backward`.
Var MakeOp(Tensor value, std::vector<Var> parents, std::function<void()> backward);

/// \brief Turns off tape building on this thread for one scope.
///
/// While a guard is alive, MakeOp builds nodes that do not require grad:
/// no grad buffer and no parents, and ops register a backward closure only
/// when their node requires grad, so they build none. Each intermediate
/// value is freed as soon as the caller drops it. Forward values are
/// unchanged. Guards nest, and each restores the state it found. Inference
/// (core::Embedder) holds one; training never does.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// \brief Runs reverse-mode autodiff from `loss` (must be [1x1]).
///
/// Seeds d(loss)/d(loss) = 1 and propagates to every reachable node with
/// requires_grad. Gradients accumulate — call ZeroGrad on parameters between
/// steps.
void Backward(const Var& loss);

}  // namespace tsfm::nn

#endif  // TSFM_NN_AUTOGRAD_H_
