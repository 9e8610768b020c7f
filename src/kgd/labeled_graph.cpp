#include "kgd/labeled_graph.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "graph/dot.hpp"

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ and assignment (GCC bug 105329); the string
// building in this file is ordinary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp::kgd {

const char* role_name(Role r) {
  switch (r) {
    case Role::kInput: return "input";
    case Role::kOutput: return "output";
    case Role::kProcessor: return "processor";
  }
  return "?";
}

FaultSet::FaultSet(int num_nodes, std::vector<Node> faulty)
    : mask_(num_nodes), list_(std::move(faulty)) {
  std::sort(list_.begin(), list_.end());
  list_.erase(std::unique(list_.begin(), list_.end()), list_.end());
  for (Node v : list_) {
    assert(v >= 0 && v < num_nodes);
    mask_.set(v);
  }
}

std::string FaultSet::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < list_.size(); ++i) {
    if (i) os << ',';
    os << list_[i];
  }
  os << '}';
  return os.str();
}

SolutionGraph::SolutionGraph(Graph g, std::vector<Role> roles, int n, int k,
                             std::string name)
    : g_(std::move(g)), roles_(std::move(roles)), name_(std::move(name)),
      n_(n), k_(k) {
  assert(static_cast<int>(roles_.size()) == g_.num_nodes());
  if (names_.empty()) {
    names_.reserve(roles_.size());
    int ni = 0, no = 0, np = 0;
    for (Role r : roles_) {
      switch (r) {
        case Role::kInput: names_.push_back("i" + std::to_string(ni++)); break;
        case Role::kOutput: names_.push_back("o" + std::to_string(no++)); break;
        case Role::kProcessor:
          names_.push_back("p" + std::to_string(np++));
          break;
      }
    }
  }
}

std::vector<Node> SolutionGraph::nodes_with(Role r) const {
  std::vector<Node> out;
  for (Node v = 0; v < num_nodes(); ++v) {
    if (roles_[v] == r) out.push_back(v);
  }
  return out;
}

int SolutionGraph::count_role(Role r) const {
  int c = 0;
  for (Role x : roles_) c += (x == r);
  return c;
}

std::vector<Node> SolutionGraph::input_attached_processors() const {
  std::vector<Node> out;
  for (Node v = 0; v < num_nodes(); ++v) {
    if (roles_[v] != Role::kProcessor) continue;
    for (Node w : g_.neighbors(v)) {
      if (roles_[w] == Role::kInput) {
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

std::vector<Node> SolutionGraph::output_attached_processors() const {
  std::vector<Node> out;
  for (Node v = 0; v < num_nodes(); ++v) {
    if (roles_[v] != Role::kProcessor) continue;
    for (Node w : g_.neighbors(v)) {
      if (roles_[w] == Role::kOutput) {
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

int SolutionGraph::max_processor_degree() const {
  int d = 0;
  for (Node v = 0; v < num_nodes(); ++v) {
    if (roles_[v] == Role::kProcessor) d = std::max(d, g_.degree(v));
  }
  return d;
}

int SolutionGraph::min_processor_degree() const {
  int d = num_nodes();
  for (Node v = 0; v < num_nodes(); ++v) {
    if (roles_[v] == Role::kProcessor) d = std::min(d, g_.degree(v));
  }
  return d;
}

bool SolutionGraph::is_node_optimal() const {
  return num_inputs() == k_ + 1 && num_outputs() == k_ + 1 &&
         num_processors() == n_ + k_;
}

bool SolutionGraph::all_terminals_degree_one() const {
  for (Node v = 0; v < num_nodes(); ++v) {
    if (roles_[v] != Role::kProcessor && g_.degree(v) != 1) return false;
  }
  return true;
}

bool SolutionGraph::is_standard() const {
  return is_node_optimal() && all_terminals_degree_one();
}

void SolutionGraph::set_node_names(std::vector<std::string> names) {
  assert(names.size() == roles_.size());
  names_ = std::move(names);
}

std::string SolutionGraph::to_dot() const {
  std::vector<std::string> colors(roles_.size());
  for (std::size_t v = 0; v < roles_.size(); ++v) {
    switch (roles_[v]) {
      case Role::kInput: colors[v] = "lightblue"; break;
      case Role::kOutput: colors[v] = "lightsalmon"; break;
      case Role::kProcessor: colors[v] = "lightgray"; break;
    }
  }
  return graph::to_dot(g_, name_.empty() ? std::string("G") : name_,
                       &names_, &colors);
}

Node SolutionGraphBuilder::add(Role r, std::string node_name) {
  const Node v = g_.add_node();
  roles_.push_back(r);
  if (node_name.empty()) {
    const char prefix = r == Role::kInput ? 'i'
                        : r == Role::kOutput ? 'o'
                                             : 'p';
    node_name = std::string(1, prefix) + std::to_string(v);
  }
  names_.push_back(std::move(node_name));
  return v;
}

SolutionGraph SolutionGraphBuilder::build() {
  SolutionGraph sg(std::move(g_), std::move(roles_), n_, k_,
                   std::move(name_));
  sg.set_node_names(std::move(names_));
  return sg;
}

}  // namespace kgdp::kgd
