#include "nn/autograd.h"

#include <algorithm>
#include <unordered_set>

#include "util/logging.h"

namespace tsfm::nn {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

Var MakeLeaf(Tensor value, bool requires_grad) {
  return std::make_shared<Node>(std::move(value), requires_grad);
}

Var MakeOp(Tensor value, std::vector<Var> parents, std::function<void()> backward) {
  const bool needs =
      g_grad_enabled && std::any_of(parents.begin(), parents.end(),
                                    [](const Var& p) { return p->requires_grad(); });
  auto node = std::make_shared<Node>(std::move(value), needs);
  if (needs) {
    node->set_parents(std::move(parents));
    node->set_backward(std::move(backward));
  }
  return node;
}

namespace {

// Iterative post-order DFS producing a topological order (parents before
// children in `order` reversed).
void TopoSort(const Var& root, std::vector<Node*>* order) {
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    const auto& parents = node->parents();
    if (idx < parents.size()) {
      Node* parent = parents[idx].get();
      ++idx;
      if (parent->requires_grad() && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& loss) {
  TSFM_CHECK(loss->requires_grad());
  TSFM_CHECK_EQ(loss->value().size(), 1u);
  loss->grad().Fill(1.0f);

  std::vector<Node*> order;
  TopoSort(loss, &order);
  // Post-order puts dependencies first; iterate from the root backwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn()) node->backward_fn()();
  }
}

}  // namespace tsfm::nn
